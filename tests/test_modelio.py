import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from spikeconv import LayerSpec, Network, NetworkSpec, Shape3, fit
from spikeconv.modelio import (
    load_features,
    load_labels,
    load_network,
    load_svm,
    network_bytes,
    network_from_bytes,
    save_features,
    save_labels,
    save_network,
    save_svm,
)


def _net():
    spec = NetworkSpec(Shape3(2, 8, 8), [
        LayerSpec("conv", 3, 3, 4, 1, 1),
        LayerSpec("pool", 2, 2, 4, 2, 0),
        LayerSpec("fc", 4, 4, 6, 1, 0),
    ])
    net = Network(spec)
    rng = np.random.default_rng(3)
    for i in spec.trainable_indices():
        net.install_column(i, rng.uniform(0.0, 1.0, spec.weight_shape(i)),
                           rng.normal(5.0, 1.0, spec.layers[i].maps))
    net.t_targets[0] = 0.75
    net.t_targets[2] = 0.8
    return net


class TestNetworkContainer:
    def test_round_trip_is_byte_exact(self, tmp_path):
        net = _net()
        p = tmp_path / "m.spknet"
        save_network(p, net)
        blob1 = p.read_bytes()
        again = load_network(p)
        assert network_bytes(again) == blob1
        # and parameters are value-identical
        for i in (0, 2):
            assert np.array_equal(again.weights[i], net.weights[i])
            assert np.array_equal(again.thresholds[i], net.thresholds[i])
        assert again.t_targets == net.t_targets
        assert again.spec.input_shape == net.spec.input_shape
        assert again.spec.layers == net.spec.layers

    def test_exotic_float_headers_survive(self, tmp_path):
        net = _net()
        net.t_targets[0] = 0.1 + 0.2  # not exactly representable in decimal
        p = tmp_path / "m.spknet"
        save_network(p, net)
        assert load_network(p).t_targets[0] == net.t_targets[0]

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            network_from_bytes(b"SOMETHING ELSE 1\nend\n")

    def test_bad_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            network_from_bytes(b"SPIKECONV MODEL 9\nend\n")

    def test_truncated_arrays_rejected(self):
        blob = network_bytes(_net())
        with pytest.raises(ValueError, match="truncated"):
            network_from_bytes(blob[:-16])

    def test_trailing_garbage_rejected(self):
        blob = network_bytes(_net())
        with pytest.raises(ValueError, match="trailing"):
            network_from_bytes(blob + b"xx")

    def test_missing_end_rejected(self):
        with pytest.raises(ValueError, match="end"):
            network_from_bytes(b"SPIKECONV MODEL 1\ninput 1 2 2\n")

    @pytest.mark.parametrize("line", ["", "input 2 6", "bounds 0.0",
                                      "layer conv 2 2 1 1 0 ttarget"])
    def test_short_header_line_rejected(self, line):
        blob = f"SPIKECONV MODEL 1\ninput 1 2 2\n{line}\nend\n".encode()
        with pytest.raises(ValueError, match=re.escape(f"header line {line!r}")):
            network_from_bytes(blob)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_ttarget_rejected(self, value):
        line = f"layer conv 2 2 1 1 0 ttarget {value}"
        blob = f"SPIKECONV MODEL 1\ninput 1 2 2\n{line}\nend\n".encode()
        with pytest.raises(ValueError, match=re.escape(f"header line {line!r}")):
            network_from_bytes(blob)

    def test_oversized_layer_rejected_before_reading(self):
        line = "layer fc 3 3 99999999999999999999 1 0"
        blob = f"SPIKECONV MODEL 1\ninput 2 3 3\n{line}\nend\n".encode() + bytes(64)
        with pytest.raises(ValueError, match=re.escape(f"header line {line!r}")):
            network_from_bytes(blob)

    @pytest.mark.parametrize("line", ["bounds 0.0 inf", "bounds nan 1.0",
                                      "bounds 1.0 1.0", "bounds 1.0 0.0"])
    def test_bad_bounds_rejected(self, line):
        blob = network_bytes(_net()).replace(b"bounds 0.0 1.0", line.encode())
        with pytest.raises(ValueError, match=re.escape(f"header line {line!r}")):
            network_from_bytes(blob)

    @pytest.mark.parametrize("array, value", [
        ("weights", np.nan), ("weights", 5.0), ("weights", -0.25),
        ("thresholds", np.nan), ("thresholds", np.inf), ("thresholds", 0.0),
        ("thresholds", -3.0),
    ])
    def test_bad_parameter_value_rejected(self, array, value):
        net = _net()
        getattr(net, array)[2].flat[1] = value
        with pytest.raises(ValueError, match=f"layer 2 {array}"):
            network_from_bytes(network_bytes(net))

    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_mutated_model_loads_or_raises_value_error(self, data):
        blob = bytearray(network_bytes(_net()))
        # half the edits land in the header, where a byte changes the layout
        header = blob.index(b"end\n") + 4
        pos = data.draw(st.one_of(st.integers(0, header - 1),
                                  st.integers(0, len(blob) - 1)))
        blob[pos] = data.draw(st.integers(0, 255))
        try:
            net = network_from_bytes(bytes(blob))
        except ValueError:
            return
        # what loads is a usable model: weights inside the bounds, thresholds > 0
        for i in net.spec.trainable_indices():
            assert np.all((net.weights[i] >= net.w_min) & (net.weights[i] <= net.w_max))
            assert np.all(np.isfinite(net.thresholds[i]) & (net.thresholds[i] > 0))

    def test_unready_network_rejected(self):
        spec = NetworkSpec(Shape3(1, 2, 2), [LayerSpec("conv", 2, 2, 1, 1, 0)])
        with pytest.raises(ValueError, match="uninitialized"):
            network_bytes(Network(spec))


class TestFeatureContainer:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        feats = rng.random((7, 5))
        p = tmp_path / "f.spkfeat"
        save_features(p, feats, has_labels=True)
        back, has_labels = load_features(p)
        assert has_labels
        assert np.array_equal(back, feats)

    def test_labels_round_trip(self, tmp_path):
        p = tmp_path / "l.txt"
        save_labels(p, [3, 1, 4, 1, 5])
        assert list(load_labels(p)) == [3, 1, 4, 1, 5]

    def test_truncated_rejected(self, tmp_path):
        p = tmp_path / "f.spkfeat"
        save_features(p, np.ones((4, 4)))
        data = p.read_bytes()
        p.write_bytes(data[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_features(p)

    @pytest.mark.parametrize("header", ["SPIKECONV FEATURES 3",
                                        "SPIKECONV FEATURES 3 4",
                                        "SPIKECONV FEATURES 3 x 0"])
    def test_short_or_non_integer_header_rejected(self, tmp_path, header):
        p = tmp_path / "f.spkfeat"
        p.write_bytes(header.encode() + b"\n" + bytes(96))
        with pytest.raises(ValueError, match=re.escape(repr(header))):
            load_features(p)

    @pytest.mark.parametrize("header", ["SPIKECONV FEATURES 2 3 0 9",
                                        "SPIKECONV FEATURES 2 3 7",
                                        "SPIKECONV FEATURES -2 3 0",
                                        "SPIKECONV FEATURES 2 -3 0"])
    def test_extra_negative_or_bad_flag_header_rejected(self, tmp_path, header):
        p = tmp_path / "f.spkfeat"
        p.write_bytes(header.encode() + b"\n" + bytes(48))
        with pytest.raises(ValueError, match=re.escape(repr(header))):
            load_features(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "f.spkfeat"
        save_features(p, np.ones((2, 3)))
        p.write_bytes(p.read_bytes() + bytes(8))
        with pytest.raises(ValueError, match="8 trailing bytes"):
            load_features(p)


def _svm_file(tmp_path):
    rng = np.random.default_rng(5)
    model = fit(rng.random((60, 6)), rng.integers(0, 3, 60), seed=1)
    p = tmp_path / "svm.spkmod"
    save_svm(p, model)
    return p, model


class TestSvmContainer:
    def test_round_trip(self, tmp_path):
        p, model = _svm_file(tmp_path)
        back = load_svm(p)
        assert np.array_equal(back.classes, model.classes)
        assert np.array_equal(back.weights, model.weights)
        assert np.array_equal(back.bias, model.bias)
        assert np.array_equal(back.class_counts, model.class_counts)

    @pytest.mark.parametrize("line", ["", "class 1 ", "class 1 2 3", "class x 2",
                                      "class 1 -2", "dim", "dim 6 6", "dim -1",
                                      "class 100000000000000000000000 3",
                                      "class -9223372036854775809 3",
                                      "class 1 9223372036854775808"])
    def test_malformed_header_line_rejected(self, tmp_path, line):
        p = tmp_path / "svm.spkmod"
        p.write_bytes(f"SPIKECONV SVM 1\ndim 2\n{line}\nclass 0 4\nend\n".encode()
                      + bytes(24))
        with pytest.raises(ValueError, match=re.escape(f"header line {line!r}")):
            load_svm(p)

    def test_truncated_or_trailing_arrays_rejected(self, tmp_path):
        p, _ = _svm_file(tmp_path)
        blob = p.read_bytes()
        p.write_bytes(blob[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_svm(p)
        p.write_bytes(blob + b"xx")
        with pytest.raises(ValueError, match="2 trailing bytes"):
            load_svm(p)
