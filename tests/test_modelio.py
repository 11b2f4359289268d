import re

import numpy as np
import pytest

from spikeconv import LayerSpec, Network, NetworkSpec, RngStreams, Shape3, fit
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
    net = Network(spec).initialize(RngStreams(3))
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


class TestSvmContainer:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        x = rng.random((60, 6))
        y = rng.integers(0, 3, 60)
        model = fit(x, y, seed=1)
        p = tmp_path / "svm.spkmod"
        save_svm(p, model)
        back = load_svm(p)
        assert np.array_equal(back.classes, model.classes)
        assert np.array_equal(back.weights, model.weights)
        assert np.array_equal(back.bias, model.bias)
        assert np.array_equal(back.class_counts, model.class_counts)
