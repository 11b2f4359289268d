import functools
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from spikeconv import LayerSpec, LinearModel, Network, NetworkSpec, Shape3, fit
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


def _edit_one_byte(data, blob: bytearray, header_end: bytes) -> bytes:
    """``blob`` with one byte replaced; half the edits land in the header.

    Half the new bytes are header digits, which can repeat a label or
    resize an array, or the 0x7f/0xff high bytes that make a float64 in
    [1, 2) infinite or NaN.
    """
    header = blob.index(header_end) + len(header_end)
    pos = data.draw(st.one_of(st.integers(0, header - 1), st.integers(0, len(blob) - 1)))
    blob[pos] = data.draw(st.one_of(st.integers(0, 255), st.sampled_from(b"0123\x7f\xff")))
    return bytes(blob)


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
        assert list(again.t_targets) == list(net.t_targets)
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
        # overwrite element 1 of layer 2's array in a valid file; the
        # arrays follow the header as w0, th0, w2, th2
        net = _net()
        blob = bytearray(network_bytes(net))
        before = [net.weights[0], net.thresholds[0]]
        if array == "thresholds":
            before.append(net.weights[2])
        at = blob.index(b"end\n") + 4 + 8 * (sum(a.size for a in before) + 1)
        assert blob[at:at + 8] == np.array(getattr(net, array)[2].flat[1], "<f8").tobytes()
        blob[at:at + 8] = np.array(value, dtype="<f8").tobytes()
        with pytest.raises(ValueError, match=f"layer 2 {array}"):
            network_from_bytes(bytes(blob))

    @pytest.mark.parametrize("array, value", [
        ("weights", np.nan), ("weights", 5.0), ("thresholds", np.inf), ("thresholds", 0.0),
    ])
    def test_writer_rejects_what_loading_rejects(self, array, value, tmp_path):
        # what loading refuses fails at the write into the network, so no
        # file can hold it: the network keeps, and saves, what it held
        net = _net()
        before = network_bytes(net)
        with pytest.raises(ValueError, match="read-only"):
            getattr(net, array)[2].flat[1] = value
        bad = getattr(net, array)[2].copy()
        bad.flat[1] = value
        with pytest.raises(ValueError, match=f"layer 2 {array}"):
            getattr(net, array)[2] = bad
        save_network(tmp_path / "m.spknet", net)
        assert (tmp_path / "m.spknet").read_bytes() == before

    @pytest.mark.parametrize("array, value", [
        ("weights", np.nan), ("weights", 3.0), ("weights", -0.25),
        ("thresholds", np.nan), ("thresholds", np.inf), ("thresholds", 0.0),
    ])
    def test_install_rejects_what_loading_rejects(self, array, value):
        # a column that could not be loaded back must not install either
        net = _net()
        params = {"weights": net.weights[2].copy(), "thresholds": net.thresholds[2].copy()}
        params[array].flat[1] = value
        with pytest.raises(ValueError, match=f"layer 2 {array}"):
            net.install_column(2, params["weights"], params["thresholds"])

    @pytest.mark.parametrize("w_min, w_max", [(0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0)])
    def test_network_rejects_non_finite_bounds(self, w_min, w_max):
        with pytest.raises(ValueError, match="finite w_min < w_max"):
            Network(_net().spec, w_min, w_max)

    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_mutated_model_loads_or_raises_value_error(self, data):
        # a header byte changes the layout, an array byte a parameter
        blob = _edit_one_byte(data, bytearray(network_bytes(_net())), b"end\n")
        try:
            net = network_from_bytes(blob)
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


class TestWritePath:
    """Every parameter reaches a network through one check, and stays as checked."""

    @pytest.mark.parametrize("source", ["install", "slot", "load"])
    def test_installed_arrays_are_read_only(self, source, tmp_path):
        net = _net()
        if source == "slot":
            net.weights[0], net.thresholds[2] = net.weights[0].copy(), np.ones(6)
        elif source == "load":
            save_network(tmp_path / "m.spknet", net)
            net = load_network(tmp_path / "m.spknet")
        for i in net.spec.trainable_indices():
            for array in (net.weights[i], net.thresholds[i]):
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[(0,) * array.ndim] = 0.5
                with pytest.raises(ValueError, match="read-only"):
                    array *= 1.0

    def test_install_stores_a_copy(self):
        net = _net()
        weights, thresholds = net.weights[2].copy(), net.thresholds[2].copy()
        net.install_column(2, weights, thresholds, 0.8)
        weights[:], thresholds[:] = 0.0, np.inf
        assert net.weights[2].max() > 0.0 and np.isfinite(net.thresholds[2]).all()

    @pytest.mark.parametrize("slots, index, value, named", [
        ("weights", 2, "nan", "layer 2 weights"),
        ("weights", 2, "5.0", "layer 2 weights"),
        ("weights", 0, "-0.25", "layer 0 weights"),
        ("weights", 2, "shape", "layer 2 weights"),
        ("weights", 2, "none", "layer 2 weights"),
        ("thresholds", 2, "inf", "layer 2 thresholds"),
        ("thresholds", 0, "0.0", "layer 0 thresholds"),
        ("thresholds", 0, "nan", "layer 0 thresholds"),
        ("weights", 1, "pooling", "layer 1 is pooling and holds no weights"),
        ("thresholds", 1, "pooling", "layer 1 is pooling and holds no thresholds"),
        ("t_targets", 1, "pooling", "layer 1 is pooling and holds no firing target"),
    ])
    def test_bad_slot_assignment_raises_before_any_forward(self, slots, index, value, named):
        # a NaN weight would silence its neuron, a weight of 5.0 under
        # bounds [0, 1] fire it early: neither may reach forward_times
        from spikeconv.simulate import forward_times

        net = _net()
        grid = np.where(np.random.default_rng(5).random((2, 8, 8)) < 0.5, 0.25, np.inf)
        want = forward_times(net, grid)
        if value == "pooling":
            bad = 0.5 if slots == "t_targets" else np.ones(4)
        elif value == "shape":
            bad = net.weights[index][:, :1]
        elif value == "none":
            bad = None
        else:
            bad = getattr(net, slots)[index].copy()
            bad.flat[1] = float(value)
        with pytest.raises(ValueError, match=named):
            getattr(net, slots)[index] = bad
        got = forward_times(net, grid)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_refused_everywhere(self, value):
        net = _net()
        with pytest.raises(ValueError, match="layer 2 firing target must be finite"):
            net.install_column(2, net.weights[2], net.thresholds[2], value)
        with pytest.raises(ValueError, match="layer 0 firing target must be finite"):
            net.t_targets[0] = value
        assert list(net.t_targets) == [0.75, None, 0.8]
        line = f"layer fc 4 4 6 1 0 ttarget {value!r}"
        blob = network_bytes(net).replace(b"layer fc 4 4 6 1 0 ttarget 0.8", line.encode())
        with pytest.raises(ValueError, match=re.escape(f"header line {line!r}")):
            network_from_bytes(blob)

    def test_pooling_target_refused_at_install(self):
        net = _net()
        net.install_column(1, None, None)  # a pooling layer holds None only
        with pytest.raises(ValueError, match="layer 1 is pooling and holds no firing target"):
            net.install_column(1, None, None, 0.5)
        with pytest.raises(ValueError, match="layer 1 is pooling and holds no weights"):
            net.install_column(1, np.ones((4, 4, 2, 2)), None)
        assert list(net.t_targets) == [0.75, None, 0.8]

    def test_refused_install_leaves_the_layer_as_it_was(self):
        net = _net()
        before = network_bytes(net)
        with pytest.raises(ValueError, match="layer 2 thresholds"):
            net.install_column(2, np.zeros((6, 4, 4, 4)), np.zeros(6), 0.5)
        assert network_bytes(net) == before

    def test_dropped_network_is_freed_at_once(self):
        # the slot lists hold no reference back to their network, so its
        # arrays go with its last reference, not at a later cycle collection
        import gc
        import weakref

        net = _net()
        ref = weakref.ref(net)
        gc.disable()
        try:
            del net
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("name", ["spec", "w_min", "w_max",
                                      "weights", "thresholds", "t_targets"])
    def test_attributes_cannot_be_rebound(self, name):
        net = _net()
        before = getattr(net, name)
        with pytest.raises(AttributeError, match=name):
            setattr(net, name, before)
        with pytest.raises(AttributeError, match=name):
            delattr(net, name)
        assert getattr(net, name) is before

    def test_slot_lists_keep_one_slot_per_layer(self):
        net = _net()
        assert len(net.weights) == len(net.t_targets) == 3
        with pytest.raises(IndexError):
            net.t_targets[3] = 0.5
        with pytest.raises(TypeError, match="slice"):
            net.t_targets[0:2] = [0.5, 0.5]
        with pytest.raises((TypeError, AttributeError)):
            net.t_targets.append(0.5)
        net.t_targets[-1] = 0.5  # counts from the end, as a list does
        assert list(net.t_targets) == [0.75, None, 0.5]


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, tmp_path, value):
        feats = np.ones((2, 3))
        feats[1, 2] = value
        p = tmp_path / "f.spkfeat"
        p.write_bytes(b"SPIKECONV FEATURES 2 3 0\n" + feats.astype("<f8").tobytes())
        with pytest.raises(ValueError, match="NaN or infinite"):
            load_features(p)

    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_mutated_features_load_or_raise_value_error(self, tmp_path, data):
        p = tmp_path / "f.spkfeat"
        save_features(p, np.random.default_rng(6).uniform(0.0, 2.0, (4, 3)), has_labels=True)
        blob = _edit_one_byte(data, bytearray(p.read_bytes()), b"\n")
        p.write_bytes(blob)
        try:
            feats, has_labels = load_features(p)
        except ValueError:
            return
        # what loads is a usable matrix of finite values
        assert feats.ndim == 2 and np.isfinite(feats).all()
        assert isinstance(has_labels, bool)


@functools.lru_cache(maxsize=1)
def _svm_model():
    rng = np.random.default_rng(5)
    return fit(rng.random((60, 6)), rng.integers(0, 3, 60), seed=1)


def _svm_file(tmp_path):
    model = _svm_model()
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

    def test_repeated_class_rejected(self, tmp_path):
        p = tmp_path / "svm.spkmod"
        p.write_bytes(b"SPIKECONV SVM 1\ndim 2\nclass 3 4\nclass 3 5\nend\n" + bytes(48))
        with pytest.raises(ValueError, match=re.escape("repeated class label in header "
                                                       "line 'class 3 5'")):
            load_svm(p)

    @pytest.mark.parametrize("index, value", [(0, np.nan), (5, np.inf), (-1, np.nan),
                                              (-2, -np.inf)])
    def test_non_finite_parameters_rejected(self, tmp_path, index, value):
        # the bias follows the weights: index -1 and -2 are bias entries
        p, model = _svm_file(tmp_path)
        params = np.concatenate([model.weights.ravel(), model.bias])
        params[index] = value
        blob = p.read_bytes()
        head = blob[:blob.index(b"end\n") + 4]
        p.write_bytes(head + params.astype("<f8").tobytes())
        with pytest.raises(ValueError, match="NaN or infinite"):
            load_svm(p)

    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_mutated_svm_loads_or_raises_value_error(self, tmp_path, data):
        p, _ = _svm_file(tmp_path)
        p.write_bytes(_edit_one_byte(data, bytearray(p.read_bytes()), b"end\n"))
        try:
            model = load_svm(p)
        except ValueError:
            return
        # what loads is a usable classifier: finite parameters, unique classes
        assert np.isfinite(model.weights).all() and np.isfinite(model.bias).all()
        assert len(np.unique(model.classes)) == len(model.classes)
        assert model.weights.shape == (len(model.classes), model.weights.shape[1])

    def test_truncated_or_trailing_arrays_rejected(self, tmp_path):
        p, _ = _svm_file(tmp_path)
        blob = p.read_bytes()
        p.write_bytes(blob[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_svm(p)
        p.write_bytes(blob + b"xx")
        with pytest.raises(ValueError, match="2 trailing bytes"):
            load_svm(p)


def _svm_with(**changes) -> LinearModel:
    """The classifier of ``TestGoldenBytes.test_svm_file`` with some fields replaced."""
    fields = dict(classes=np.array([3, 7]), weights=np.array([[0.5, -1.0], [2.0, 0.1]]),
                  bias=np.array([0.125, -3.0]), class_counts=np.array([4, 6]))
    return LinearModel(**{**fields, **changes})


def _refused_features(value):
    feats = np.ones((2, 3))
    feats[1, 0] = value
    return feats


class TestRefusedWrites:
    """A writer refuses what its reader refuses, before it opens the file."""

    @pytest.mark.parametrize("save, what, named", [
        pytest.param(lambda p: save_features(p, _refused_features(np.nan)),
                     "features", "NaN or infinite", id="features-nan"),
        pytest.param(lambda p: save_features(p, _refused_features(np.inf)),
                     "features", "NaN or infinite", id="features-inf"),
        pytest.param(lambda p: save_features(p, _refused_features(-np.inf), has_labels=True),
                     "features", "NaN or infinite", id="features-minus-inf"),
        pytest.param(lambda p: save_svm(p, _svm_with(weights=np.array([[0.5, np.nan],
                                                                       [2.0, 0.1]]))),
                     "svm", "NaN or infinite", id="svm-nan-weight"),
        pytest.param(lambda p: save_svm(p, _svm_with(bias=np.array([np.inf, -3.0]))),
                     "svm", "NaN or infinite", id="svm-inf-bias"),
        pytest.param(lambda p: save_svm(p, _svm_with(classes=np.array([3, 3]))),
                     "svm", "repeated class label in header line 'class 3 6'",
                     id="svm-repeated-class"),
        pytest.param(lambda p: save_svm(p, _svm_with(class_counts=np.array([4, -1]))),
                     "svm", "negative class count in header line 'class 7 -1'",
                     id="svm-negative-count"),
        # a label is written as str gives it, so the reader refuses a fraction
        # rather than reading it back cut to an int
        pytest.param(lambda p: save_svm(p, _svm_with(classes=np.array([1.7, 2.0]))),
                     "svm", "malformed header line 'class 1.7 4'", id="svm-fraction-class"),
        pytest.param(lambda p: save_svm(p, _svm_with(classes=np.array([1.2, 1.7]))),
                     "svm", "malformed header line 'class 1.2 4'", id="svm-fraction-classes"),
        pytest.param(lambda p: save_labels(p, [3, 1.7, 4]), "labels",
                     "line 2 is not an int64 label", id="labels-fraction"),
        pytest.param(lambda p: save_labels(p, [3, 1, np.nan]), "labels",
                     "line 3 is not an int64 label", id="labels-nan"),
        pytest.param(lambda p: save_labels(p, [2**63]), "labels",
                     "line 1 is not an int64 label", id="labels-overflow"),
    ])
    def test_refused_write_leaves_the_file_untouched(self, tmp_path, save, what, named):
        p = tmp_path / "out.file"
        if what == "features":
            save_features(p, np.ones((1, 2)))
        elif what == "svm":
            save_svm(p, _svm_with())
        else:
            save_labels(p, [5, 6])
        before = p.read_bytes()
        with pytest.raises(ValueError) as info:
            save(p)
        assert str(info.value).startswith(f"{p}: ") and named in str(info.value)
        assert p.read_bytes() == before

    def test_refused_write_creates_no_file(self, tmp_path):
        p = tmp_path / "never.spkfeat"
        with pytest.raises(ValueError, match="NaN or infinite"):
            save_features(p, _refused_features(np.nan))
        assert not p.exists()

    def test_integral_labels_of_any_integer_type_round_trip(self, tmp_path):
        p = tmp_path / "l.txt"
        save_labels(p, np.array([0, 9, -4, 2**63 - 1], dtype=np.int64))
        assert load_labels(p).tolist() == [0, 9, -4, 2**63 - 1]
        save_labels(p, np.array([7, 255], dtype=np.uint8))
        assert load_labels(p).tolist() == [7, 255]


def _model_blob(old: bytes = b"", new: bytes = b"") -> bytes:
    return network_bytes(_net()).replace(old, new, 1)


def _svm_blob(old: bytes = b"", new: bytes = b"") -> bytes:
    blob = b"SPIKECONV SVM 1\ndim 2\nclass 3 4\nclass 7 6\nend\n" + bytes(48)
    return blob.replace(old, new, 1)


class TestReadErrors:
    """Every reader error starts with the path and quotes the header line at fault."""

    @pytest.mark.parametrize("load, blob, named", [
        pytest.param(load_network, b"\xff" + _model_blob()[1:],
                     "non-ASCII header line b'\\xffPIKECONV MODEL 1'", id="model-non-ascii"),
        pytest.param(load_features, b"\xffPIKECONV FEATURES 1 1 0\n" + bytes(8),
                     "non-ASCII header line b'\\xffPIKECONV FEATURES 1 1 0'",
                     id="features-non-ascii"),
        pytest.param(load_network, _model_blob(b"MODEL 1", b"MODEL 1.0"),
                     "header line 'SPIKECONV MODEL 1.0'", id="model-version-1.0"),
        pytest.param(load_svm, _svm_blob(b"SVM 1", b"SVM x"),
                     "header line 'SPIKECONV SVM x'", id="svm-version-x"),
        pytest.param(load_network, _model_blob(b"input 2 8 8\n", b"input 2 8 8\ninput 2 9 9\n"),
                     "repeated header line 'input 2 9 9'", id="model-repeated-input"),
        pytest.param(load_network, _model_blob(b"bounds", b"bounds 0.0 1.0\nbounds"),
                     "repeated header line 'bounds 0.0 1.0'", id="model-repeated-bounds"),
        pytest.param(load_svm, _svm_blob(b"dim 2\n", b"dim 2\ndim 3\n"),
                     "repeated header line 'dim 3'", id="svm-repeated-dim"),
        pytest.param(load_network, _model_blob(b"input 2", b"input a"),
                     "malformed header line 'input a 8 8'", id="model-input-not-a-number"),
        pytest.param(load_network, _model_blob(b"bounds 0.0", b"bounds x"),
                     "malformed header line 'bounds x 1.0'", id="model-bounds-not-a-number"),
        pytest.param(load_network, _model_blob(b"ttarget 0.75", b"ttarget inf"),
                     "malformed header line 'layer conv 3 3 4 1 1 ttarget inf'",
                     id="model-ttarget-inf"),
        pytest.param(load_network, _model_blob(b"pool 2 2 4 2 0", b"pool 2 2 4 2 0 ttarget 0.5"),
                     "header line 'layer pool 2 2 4 2 0 ttarget 0.5': layer 1 is pooling",
                     id="model-pooling-ttarget"),
        pytest.param(load_network, _model_blob(b"input 2", b"input 0"),
                     "header line 'input 0 8 8'", id="model-input-zero"),
        pytest.param(load_labels, b"3\n1\nx\n", "line 3 is not an int64 label",
                     id="labels-not-an-integer"),
        pytest.param(load_labels, b"3\n99999999999999999999\n", "line 2 is not an int64 label",
                     id="labels-overflow"),
    ])
    def test_error_names_path_and_header_line(self, tmp_path, load, blob, named):
        p = tmp_path / "bad.file"
        p.write_bytes(blob)
        with pytest.raises(ValueError) as info:
            load(p)
        assert str(info.value).startswith(f"{p}: ")
        assert named in str(info.value)

    def test_truncated_model_names_path_and_layer_line(self, tmp_path):
        p = tmp_path / "short.spknet"
        p.write_bytes(network_bytes(_net())[:-8])
        with pytest.raises(ValueError) as info:
            load_network(p)
        assert str(info.value) == (f"{p}: truncated arrays: header line "
                                   "'layer fc 4 4 6 1 0 ttarget 0.8' needs 48 bytes, 40 left")


class TestGoldenBytes:
    """The exact bytes of the classifier and feature formats."""

    def test_svm_file(self, tmp_path):
        model = LinearModel(np.array([3, 7]), np.array([[0.5, -1.0], [2.0, 0.1]]),
                            np.array([0.125, -3.0]), np.array([4, 6]))
        p = tmp_path / "svm.spkmod"
        save_svm(p, model)
        assert p.read_bytes() == (b"SPIKECONV SVM 1\ndim 2\nclass 3 4\nclass 7 6\nend\n"
                                  + struct.pack("<6d", 0.5, -1.0, 2.0, 0.1, 0.125, -3.0))

    def test_feature_file(self, tmp_path):
        p = tmp_path / "f.spkfeat"
        save_features(p, np.array([[1.5, -2.0, 0.0], [4.0, 0.25, 1e-300]]), has_labels=True)
        assert p.read_bytes() == (b"SPIKECONV FEATURES 2 3 1\n"
                                  + struct.pack("<6d", 1.5, -2.0, 0.0, 4.0, 0.25, 1e-300))
