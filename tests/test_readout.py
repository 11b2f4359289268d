import numpy as np
import pytest

from spikeconv import (
    InhibitionPolicy,
    LayerSpec,
    Network,
    NetworkSpec,
    Shape3,
    decode_grid,
    extract_features,
    mean_sparsity,
    reconstruct_filter,
    sparsity,
    sum_pool,
)

from oracles import decode


class TestDecode:
    def test_target_time_decodes_to_one(self):
        assert decode_grid(np.array([0.7]), 0.7, 1.0)[0] == 1.0

    def test_end_time_and_silence_decode_to_zero(self):
        assert np.array_equal(decode_grid(np.array([1.0, np.inf]), 0.7, 1.0), [0.0, 0.0])

    def test_early_spike_clamps_to_one(self):
        assert decode_grid(np.array([0.3]), 0.7, 1.0)[0] == 1.0

    def test_midpoint(self):
        assert decode_grid(np.array([0.85]), 0.7, 1.0)[0] == pytest.approx(0.5)

    def test_non_increasing_and_bounded(self):
        vals = decode_grid(np.linspace(0.0, 1.0, 101), 0.6, 1.0)
        assert np.all(np.diff(vals) <= 0)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_clipped_target_limit_convention(self):
        # targets clipped to the window end decode any spike as 1
        assert np.array_equal(decode_grid(np.array([0.2, np.inf]), 1.0, 1.0), [1.0, 0.0])

    def test_target_beyond_end_rejected(self):
        with pytest.raises(ValueError):
            decode_grid(np.array([0.5]), 1.2, 1.0)

    @pytest.mark.parametrize("t_target, t_end, name", [
        (np.nan, 1.0, "t_target"), (-np.inf, 1.0, "t_target"),
        (0.7, np.nan, "t_end"), (0.7, np.inf, "t_end"), (np.inf, np.inf, "t_target")])
    def test_non_finite_bounds_rejected(self, t_target, t_end, name):
        # a NaN bound decodes to NaN, and t_end = inf would decode every spike to 1
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            decode_grid(np.array([0.5, np.inf]), t_target, t_end)

    def test_array_like_read_as_float64(self):
        got = decode_grid([[np.inf, 0.5], [0.85, 1]], 0.7, 1.0)
        want = decode_grid(np.array([[np.inf, 0.5], [0.85, 1.0]]), 0.7, 1.0)
        assert got.dtype == np.float64 and np.array_equal(got, want)
        with pytest.raises(ValueError):
            decode_grid([[np.inf, 0.5], [0.85]], 0.7, 1.0)

    def test_grid_matches_scalar(self):
        rng = np.random.default_rng(0)
        times = np.where(rng.random((3, 4, 4)) < 0.7, rng.random((3, 4, 4)), np.inf)
        for t_target in (0.6, 1.0):
            grid = decode_grid(times, t_target, 1.0)
            for m in range(3):
                for y in range(4):
                    for x in range(4):
                        assert grid[m, y, x] == pytest.approx(
                            decode(float(times[m, y, x]), t_target, 1.0)
                        )


class TestSumPool:
    def test_single_column_is_identity(self):
        field = np.arange(5.0).reshape(5, 1, 1)
        assert np.array_equal(sum_pool(field), np.arange(5.0))

    def test_all_ones(self):
        assert np.array_equal(sum_pool(np.ones((3, 2, 2))), [4.0, 4.0, 4.0])

    def test_random_matches_accumulation_loop(self):
        rng = np.random.default_rng(1)
        field = rng.random((2, 3, 3))
        want = np.zeros(2)
        for d in range(2):
            for y in range(3):
                for x in range(3):
                    want[d] += field[d, y, x]
        assert np.allclose(sum_pool(field), want, atol=1e-12)


class TestSparsity:
    def test_one_hot_is_maximally_sparse(self):
        for dim in (2, 10, 4096):
            v = np.zeros(dim)
            v[dim // 2] = 3.7
            assert sparsity(v) == pytest.approx(1.0)

    def test_constant_is_dense(self):
        assert sparsity(np.full(64, 0.5)) == pytest.approx(0.0, abs=1e-12)

    def test_zero_vector_reports_zero(self):
        assert sparsity(np.zeros(128)) == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            y = rng.random(int(rng.integers(2, 40)))
            c = float(rng.uniform(1e-3, 1e3))
            assert abs(sparsity(c * y) - sparsity(y)) < 1e-12

    def test_small_vector_rejected(self):
        with pytest.raises(ValueError):
            sparsity(np.array([1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected_by_row(self, bad):
        y = np.array([0.0, 0.5, bad, 1.0])
        with pytest.raises(ValueError, match=f"got {bad} at entry 2"):
            sparsity(y)
        features = np.full((4, 3), 0.25)
        features[2, 1] = bad
        with pytest.raises(ValueError, match=f"feature row 2 holds {bad} at entry 1"):
            mean_sparsity(features)
        features[2, 1] = 0.25
        assert mean_sparsity(features) == sparsity(features[2]) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_mean_sparsity_bitwise_the_per_row_measure(self, seed):
        # the Hoyer measure row by row, as ``sparsity`` computed it before the
        # matrix-wide pass, and the mean of that list; widths past numpy's
        # 8-way unrolled and 128-element pairwise sum blocks, zero, one-hot,
        # constant and tiny or huge rows, C and Fortran layouts
        def per_row(y):
            l2 = np.sqrt(np.sum(y * y))
            if l2 == 0.0:
                return 0.0
            rn = np.sqrt(y.size)
            return float((rn - np.sum(np.abs(y)) / l2) / (rn - 1.0))

        rng = np.random.default_rng(90 + seed)
        for _ in range(50):
            n, d = int(rng.integers(1, 60)), int(rng.choice([2, 3, 7, 9, 64, 129, 512, 1031]))
            x = rng.random((n, d)) * (rng.random((n, d)) < rng.uniform(0.05, 1.0))
            x *= 10.0 ** rng.uniform(-150, 150, (n, 1))
            kinds = rng.integers(0, 4, n)
            x[kinds == 1] = 0.0
            x[kinds == 2] = 0.0
            x[kinds == 2, rng.integers(0, d)] = 2.5
            x[kinds == 3] = 0.125
            for features in (x, np.asfortranarray(x)):
                want = [per_row(np.ascontiguousarray(row)) for row in features]
                assert [sparsity(row) for row in features] == want
                assert mean_sparsity(features) == float(np.mean(want))

    def test_mean_sparsity_reads_array_likes(self):
        rows = [[1.0, 2.0], [3, 4]]
        assert mean_sparsity(rows) == mean_sparsity(np.array(rows, dtype=np.float64))
        with pytest.raises(ValueError):
            mean_sparsity([[1.0, 2.0], [3.0]])


def _feature_net(out_maps=4, th=1.0, seed=0):
    spec = NetworkSpec(Shape3(2, 4, 4), [LayerSpec("fc", 4, 4, out_maps, 1, 0)])
    net = Network(spec)
    rng = np.random.default_rng(seed)
    net.weights[0] = rng.uniform(0, 1, spec.weight_shape(0))
    net.thresholds[0] = np.full(out_maps, th)
    net.t_targets[0] = 0.6
    return net


class TestExtractFeatures:
    def test_dead_network_zero_matrix_and_zero_sparsity(self):
        net = _feature_net(th=1e9)
        rng = np.random.default_rng(3)
        grids = [np.where(rng.random((2, 4, 4)) < 0.5, 0.2, np.inf) for _ in range(5)]
        feats = extract_features(net, grids, 1.0)
        assert feats.shape == (5, 4)
        assert np.all(feats == 0.0)
        assert mean_sparsity(feats) == 0.0

    def test_single_column_features_are_decoded_outputs(self):
        from spikeconv.simulate import forward_times

        net = _feature_net()
        rng = np.random.default_rng(4)
        grid = np.where(rng.random((2, 4, 4)) < 0.6, rng.random((2, 4, 4)), np.inf)
        out_times = forward_times(net, grid)[-1]
        want = decode_grid(out_times, 0.6, 1.0).ravel()
        got = extract_features(net, [grid], 1.0)[0]
        assert np.allclose(got, want, atol=1e-12)

    def test_window_end_is_required(self):
        # in a [0, 2] coding window a spike at 1.5 carries a value; decoded
        # against an assumed end of 1.0 it would silently read 0
        from spikeconv.simulate import forward_times

        net = _feature_net()
        grid = np.full((2, 4, 4), 1.5)
        with pytest.raises(TypeError):
            extract_features(net, [grid])
        got = extract_features(net, [grid], 2.0)[0]
        assert np.array_equal(got, decode_grid(forward_times(net, grid)[-1], 0.6, 2.0).ravel())
        assert got.sum() > 0

    @pytest.mark.parametrize("t_end", [np.nan, np.inf, -np.inf])
    def test_non_finite_window_end_rejected(self, t_end, monkeypatch):
        import spikeconv.readout as readout

        runs = []
        real = readout.forward_stacks
        monkeypatch.setattr(readout, "forward_stacks", lambda *a: runs.append(1) or real(*a))
        with pytest.raises(ValueError, match="^t_end must be finite"):
            extract_features(_feature_net(), [np.full((2, 4, 4), 0.5)], t_end)
        assert runs == []  # refused before any sample runs

    def test_ensemble_concatenates_widths(self):
        nets = [_feature_net(2, seed=5), _feature_net(3, seed=6)]
        rng = np.random.default_rng(7)
        grids = [np.where(rng.random((2, 4, 4)) < 0.6, 0.3, np.inf) for _ in range(4)]
        feats = extract_features(nets, grids, 1.0)
        assert feats.shape == (4, 5)
        solo = extract_features(nets[1], grids, 1.0)
        assert np.allclose(feats[:, 2:], solo)

    def test_network_without_firing_target_rejected(self):
        untargeted = _feature_net()
        untargeted.install_column(0, untargeted.weights[0], untargeted.thresholds[0])
        with pytest.raises(ValueError, match="no firing target"):
            extract_features([_feature_net(), untargeted],
                             [np.full((2, 4, 4), np.inf)], 1.0)

    def test_last_layer_without_target_rejected(self):
        # the output decodes against the last trainable layer's own target,
        # never an earlier layer's, also when it comes from a model file
        from spikeconv.modelio import network_bytes, network_from_bytes

        spec = NetworkSpec(Shape3(2, 4, 4), [LayerSpec("conv", 3, 3, 3, 1, 0),
                                             LayerSpec("fc", 2, 2, 4, 1, 0)])
        net = Network(spec)
        rng = np.random.default_rng(8)
        for i in (0, 1):
            net.install_column(i, rng.uniform(0, 1, spec.weight_shape(i)), np.ones(spec.layers[i].maps))
        net.t_targets[0] = 0.3
        grids = [np.full((2, 4, 4), 0.1)]
        for model in (net, network_from_bytes(network_bytes(net))):
            assert model.output_t_target is None
            with pytest.raises(ValueError, match="no firing target"):
                extract_features(model, grids, 1.0)

    def test_sum_pool_applied_for_multi_column_output(self):
        spec = NetworkSpec(Shape3(1, 4, 4), [LayerSpec("conv", 2, 2, 3, 2, 0)])
        net = Network(spec)
        net.weights[0] = np.ones(spec.weight_shape(0))
        net.thresholds[0] = np.full(3, 0.5)
        net.t_targets[0] = 0.0
        grid = np.zeros((1, 4, 4))  # everything spikes at t=0
        feats = extract_features(net, [grid], 1.0)
        # 2x2 output columns all fire at t=0 -> decode 1.0, sum 4 per map
        assert np.allclose(feats, [[4.0, 4.0, 4.0]])

    def test_inference_policy_changes_features(self):
        net = _feature_net(out_maps=6, th=1.5, seed=8)
        rng = np.random.default_rng(9)
        grids = [np.where(rng.random((2, 4, 4)) < 0.8, rng.random((2, 4, 4)), np.inf)
                 for _ in range(3)]
        plain = extract_features(net, grids, 1.0)
        wta = extract_features(net, grids, 1.0, InhibitionPolicy("wta"))
        assert np.count_nonzero(wta) <= np.count_nonzero(plain)
        for row in wta:
            assert np.count_nonzero(row) <= 1  # single column: one-hot


class TestExtractFeatureStacks:
    def _net(self, layer, seed):
        spec = NetworkSpec(Shape3(2, 5, 5), [layer])
        net = Network(spec)
        rng = np.random.default_rng(seed)
        net.install_column(0, rng.uniform(0, 1, spec.weight_shape(0)),
                           rng.uniform(0.5, 2.0, layer.maps), 0.4)
        return net

    def test_stacks_equal_single_samples(self, monkeypatch):
        import spikeconv.simulate as simulate
        from spikeconv.simulate import forward_times

        # an ensemble of a conv net with nine output columns per map, whose
        # decode sums over positions, and an fc net
        nets = [self._net(LayerSpec("conv", 3, 3, 4, 1, 0), 21),
                self._net(LayerSpec("fc", 5, 5, 3, 1, 0), 22)]
        rng = np.random.default_rng(24)
        grids = [np.where(rng.random((2, 5, 5)) < 0.5, rng.random((2, 5, 5)), np.inf)
                 for _ in range(5)]
        grids[2] = np.full((2, 5, 5), np.inf)  # a silent sample inside a stack
        # stacks of 2, 2 and 1
        monkeypatch.setattr(simulate, "stack_size", lambda spec, start=0, stop=None: 2)
        for policy in (InhibitionPolicy("none"), InhibitionPolicy("soft", 0.3),
                       InhibitionPolicy("wta"), InhibitionPolicy("wta", scope="layer")):
            feats = extract_features(nets, grids, 1.0, policy)
            for row, grid in zip(feats, grids):
                want = [sum_pool(decode_grid(forward_times(net, grid, policy)[-1],
                                             net.output_t_target, 1.0)) for net in nets]
                assert np.array_equal(row, np.concatenate(want))

    def test_empty_dataset_gives_empty_matrix(self):
        feats = extract_features([_feature_net(2), _feature_net(3)], [], 1.0)
        assert feats.shape == (0, 5)

    def test_no_network_rejected(self):
        with pytest.raises(ValueError, match="^feature extraction needs at least one network$"):
            extract_features([], [np.full((2, 4, 4), np.inf)], 1.0)

    def test_policy_of_another_type_rejected(self):
        grids = [np.full((2, 4, 4), 0.3)]
        with pytest.raises(ValueError, match="^policy must be an InhibitionPolicy, got str$"):
            extract_features(_feature_net(), grids, 1.0, "soft")

    def test_policy_of_another_type_rejected_on_an_empty_dataset(self):
        with pytest.raises(ValueError, match="^policy must be an InhibitionPolicy, got str$"):
            extract_features(_feature_net(), [], 1.0, "soft")

    def test_policy_of_another_type_rejected_on_an_empty_dataset_of_a_layered_net(self):
        # a layered network runs in groups, and an empty dataset has none
        net = _layered_net([LayerSpec("conv", 3, 3, 4, 1, 0), LayerSpec("pool", 2, 2, 4, 2, 0),
                            LayerSpec("fc", 2, 2, 3, 1, 0)], 27)
        with pytest.raises(ValueError, match="^policy must be an InhibitionPolicy, got str$"):
            extract_features(net, [], 1.0, "soft")
        with pytest.raises(ValueError, match="^policy must be an InhibitionPolicy, got str$"):
            extract_features([_feature_net(), net], [], 1.0, "soft")

    def test_bad_grid_named_by_its_index(self):
        rng = np.random.default_rng(25)
        grids = [np.where(rng.random((2, 4, 4)) < 0.5, 0.3, np.inf) for _ in range(6)]
        for bad, name in ((np.nan, "NaN"), (-np.inf, "-inf")):
            broken = [g.copy() for g in grids]
            broken[4][1, 2, 3] = bad
            with pytest.raises(ValueError, match=f"^sample 4: input spike times contain {name}"):
                extract_features(_feature_net(), broken, 1.0)
        broken = list(grids)
        broken[3] = np.full((2, 3, 4), np.inf)
        with pytest.raises(ValueError, match=r"^sample 3: input grid shape \(2, 3, 4\) does not "
                                             r"match the network input \(2, 4, 4\)"):
            extract_features(_feature_net(), broken, 1.0)

    def test_list_grids_equal_the_arrays(self):
        rng = np.random.default_rng(26)
        grids = [np.where(rng.random((2, 4, 4)) < 0.5, rng.random((2, 4, 4)), np.inf)
                 for _ in range(5)]
        net = _feature_net()
        for policy in (InhibitionPolicy("none"), InhibitionPolicy("soft", 0.3)):
            want = extract_features(net, grids, 1.0, policy)
            assert np.array_equal(extract_features(net, [g.tolist() for g in grids], 1.0, policy),
                                  want)

    @pytest.mark.parametrize("bad", ["abc", [[[0.1, 0.2], [0.3]]]], ids=["string", "ragged"])
    def test_non_numeric_or_ragged_grid_named_by_its_index(self, bad):
        grids = [bad, np.full((2, 4, 4), 0.3)]
        with pytest.raises(ValueError, match="^sample 0: input grid is not an array of spike times"):
            extract_features(_feature_net(), grids, 1.0)


def _layered_net(layers, seed, in_shape=Shape3(2, 6, 6)):
    spec = NetworkSpec(in_shape, layers)
    net = Network(spec)
    rng = np.random.default_rng(seed)
    for i in spec.trainable_indices():
        net.install_column(i, rng.uniform(0, 1, spec.weight_shape(i)),
                           rng.uniform(0.5, 2.0, spec.layers[i].maps), 0.4)
    return net


# every policy the benchmark runs, a weak soft inhibition, and one that
# inhibits the last layer only
GROUP_POLICIES = [
    InhibitionPolicy("none"),
    InhibitionPolicy("soft", 1.0, "column"),
    InhibitionPolicy("wta", 1.0, "column"),
    InhibitionPolicy("wta", 1.0, "layer"),
    InhibitionPolicy("soft", 1.0, "layer"),
    InhibitionPolicy("soft", 0.005),
    InhibitionPolicy("soft", 1.0, layers="output"),
]


class TestExtractFeatureGroups:
    """A layered network's last layer runs over groups of samples at once."""

    @staticmethod
    def _nets():
        # a last layer that is fc, one that is conv (four output positions),
        # and an fc last layer over a larger input field than the first's
        return [
            _layered_net([LayerSpec("conv", 3, 3, 4, 1, 0), LayerSpec("pool", 2, 2, 4, 2, 0),
                          LayerSpec("fc", 2, 2, 5, 1, 0)], 31),
            _layered_net([LayerSpec("conv", 3, 3, 4, 1, 1), LayerSpec("pool", 2, 2, 4, 2, 0),
                          LayerSpec("conv", 2, 2, 3, 1, 0)], 32),
            _layered_net([LayerSpec("conv", 2, 2, 3, 1, 0), LayerSpec("fc", 5, 5, 4, 1, 0)], 33),
        ]

    @staticmethod
    def _grids(count, seed):
        rng = np.random.default_rng(seed)
        levels = rng.integers(0, 8, (count, 2, 6, 6)) / 8  # few levels: many ties
        grids = list(np.where(rng.random((count, 2, 6, 6)) < 0.6, levels, np.inf))
        if count > 2:
            grids[1] = np.full((2, 6, 6), np.inf)  # a silent sample inside a group
        return grids

    @staticmethod
    def _singles(nets, grids, policy):
        from spikeconv.simulate import forward_times

        return np.array([np.concatenate([
            sum_pool(decode_grid(forward_times(net, grid, policy)[-1], net.output_t_target, 1.0))
            for net in nets]) for grid in grids])

    @pytest.mark.parametrize("policy", GROUP_POLICIES, ids=repr)
    def test_groups_equal_single_samples(self, policy, monkeypatch):
        import spikeconv.simulate as simulate

        nets = self._nets()
        assert len({net.spec.shapes[-2] for net in nets}) == 3
        # groups of 3 at the last layer, filled from prefix stacks of 2
        monkeypatch.setattr(simulate, "stack_size",
                            lambda spec, start=0, stop=None: 3 if start else 2)
        for count in (1, 2, 3, 4, 7):  # 1, group - 1, group, group + 1, 2 * group + 1
            grids = self._grids(count, 40 + count)
            want = self._singles(nets, grids, policy)
            assert np.array_equal(extract_features(nets, grids, 1.0, policy), want)
            for net, lo, hi in zip(nets, (0, 5, 8), (5, 8, 12)):
                assert np.array_equal(extract_features(net, grids, 1.0, policy), want[:, lo:hi])

    def test_groups_fire(self):
        # the cases above decode spikes of every last layer, not silence
        feats = extract_features(self._nets(), self._grids(7, 47), 1.0)
        assert np.all(feats[:, :5].sum(axis=0) > 0)
        assert feats[:, 5:8].sum() > 0 and feats[:, 8:].sum() > 0

    def test_unpatched_groups_equal_single_samples(self):
        nets, grids = self._nets(), self._grids(9, 48)
        for policy in (InhibitionPolicy("none"), InhibitionPolicy("soft", 1.0)):
            assert np.array_equal(extract_features(nets, grids, 1.0, policy),
                                  self._singles(nets, grids, policy))

    def test_last_layer_runs_once_per_group(self, monkeypatch):
        import spikeconv.simulate as simulate

        net = self._nets()[0]
        calls = []
        real = simulate.forward_layer

        def spy(net, i, g, p):
            calls.append((i, len(g)))
            return real(net, i, g, p)

        monkeypatch.setattr(simulate, "forward_layer", spy)
        monkeypatch.setattr(simulate, "stack_size", lambda spec, start=0, stop=None: 2)
        extract_features(net, self._grids(5, 49), 1.0)
        assert [n for i, n in calls if i == 2] == [2, 2, 1]
        assert [n for i, n in calls if i == 0] == [2, 2, 1]


class TestDispatchLevels:
    def test_features_equal_with_the_widest_simd_disabled(self, tmp_path):
        # fixed tie-heavy grids, with no encoding (and no np.exp); the child
        # process runs NumPy with its AVX-512 sorts and loops switched off
        import os
        import subprocess
        import sys

        import spikeconv
        from spikeconv.modelio import save_network
        from util import random_grid

        disabled = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
        try:
            from numpy._core._multiarray_umath import __cpu_dispatch__
        except ImportError:
            pytest.skip("NumPy does not report its dispatch targets")
        if not set(disabled) <= set(__cpu_dispatch__):
            pytest.skip(f"NumPy does not dispatch to all of {disabled} here")
        net = _layered_net([LayerSpec("conv", 5, 5, 8, 1, 0), LayerSpec("pool", 2, 2, 8, 2, 0),
                            LayerSpec("fc", 4, 4, 16, 1, 0)], 51, Shape3(2, 12, 12))
        rng = np.random.default_rng(52)
        grids = np.stack([random_grid(rng, net.spec.input_shape, int(n), tie_heavy=True)
                          for n in rng.integers(0, 160, 40)])
        save_network(tmp_path / "net.spknet", net)
        np.save(tmp_path / "grids.npy", grids)
        code = (
            "import sys, numpy as np\n"
            "from numpy._core._multiarray_umath import __cpu_features__\n"
            "assert not __cpu_features__['X86_V4']\n"
            "from spikeconv import InhibitionPolicy, extract_features\n"
            "from spikeconv.modelio import load_network\n"
            "net = load_network(sys.argv[1] + '/net.spknet')\n"
            "grids = np.load(sys.argv[1] + '/grids.npy')\n"
            "for mode in ('none', 'soft'):\n"
            "    feats = extract_features(net, grids, 1.0, InhibitionPolicy(mode))\n"
            "    np.save(sys.argv[1] + f'/{mode}.npy', feats)\n"
        )
        home = os.path.dirname(os.path.dirname(spikeconv.__file__))
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(disabled),
               "PYTHONPATH": os.pathsep.join(filter(None, [home, os.environ.get("PYTHONPATH")]))}
        res = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                             capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        for mode in ("none", "soft"):
            feats = extract_features(net, list(grids), 1.0, InhibitionPolicy(mode))
            assert feats.any()
            assert np.load(tmp_path / f"{mode}.npy").tobytes() == feats.tobytes()


class TestReconstruction:
    def test_layer1_uniform_on_channel(self):
        spec = NetworkSpec(Shape3(2, 6, 6), [LayerSpec("conv", 3, 3, 2, 1, 0)])
        net = Network(spec)
        w = np.zeros(spec.weight_shape(0))
        w[0, 0] = 1.0  # map 0 fully wired to the on channel
        net.weights[0] = w
        net.thresholds[0] = np.ones(2)
        img = reconstruct_filter(net, 0, 0)
        assert img.shape == (2, 3, 3)
        assert np.all(img[0] == 1.0)
        assert np.all(img[1] == 0.0)

    def test_identity_one_by_one_composition(self):
        # a 1x1 second layer wired one-to-one reproduces the first filter
        spec = NetworkSpec(Shape3(2, 6, 6), [
            LayerSpec("conv", 3, 3, 2, 1, 0),
            LayerSpec("conv", 1, 1, 2, 1, 0),
        ])
        net = Network(spec)
        rng = np.random.default_rng(10)
        net.weights[0] = rng.uniform(0, 1, spec.weight_shape(0))
        net.thresholds[0] = np.ones(2)
        eye = np.zeros(spec.weight_shape(1))
        eye[0, 0, 0, 0] = 1.0
        eye[1, 1, 0, 0] = 1.0
        net.weights[1] = eye
        net.thresholds[1] = np.ones(2)
        got = reconstruct_filter(net, 1, 0)
        want = reconstruct_filter(net, 0, 0)
        assert np.allclose(got, want, atol=1e-12)

    def test_two_layer_matches_matrix_product_oracle(self):
        spec = NetworkSpec(Shape3(2, 5, 5), [
            LayerSpec("conv", 2, 2, 3, 1, 0),
            LayerSpec("fc", 4, 4, 2, 1, 0),
        ])
        net = Network(spec)
        rng = np.random.default_rng(11)
        w1 = rng.uniform(0, 1, spec.weight_shape(0))
        w2 = rng.uniform(0, 1, spec.weight_shape(1))
        net.weights[0], net.weights[1] = w1, w2
        net.thresholds[0], net.thresholds[1] = np.ones(3), np.ones(2)

        # independent accumulation: place each first-layer filter at its
        # receptive-field offset, weighted by the second-layer synapse
        target = 1
        canvas = np.zeros((2, 5, 5))
        for j in range(3):
            for y in range(4):
                for x in range(4):
                    canvas[:, y:y + 2, x:x + 2] += w2[target, j, y, x] * w1[j]
        canvas /= canvas.max()

        got = reconstruct_filter(net, 1, target)
        assert got.shape == (2, 5, 5)
        assert np.allclose(got, canvas, atol=1e-12)

    def test_pooling_upsamples_by_footprint(self):
        spec = NetworkSpec(Shape3(1, 4, 4), [
            LayerSpec("conv", 1, 1, 1, 1, 0),
            LayerSpec("pool", 2, 2, 1, 2, 0),
            LayerSpec("fc", 2, 2, 1, 1, 0),
        ])
        net = Network(spec, 0.0, 4.0)
        net.weights[0] = np.ones((1, 1, 1, 1))
        net.thresholds[0] = np.ones(1)
        net.weights[2] = np.arange(1.0, 5.0).reshape(1, 1, 2, 2)
        net.thresholds[2] = np.ones(1)
        img = reconstruct_filter(net, 2, 0)
        # each pooled pixel expands to its 2x2 block
        want = np.repeat(np.repeat(np.arange(1.0, 5.0).reshape(2, 2), 2, 0), 2, 1)
        assert np.allclose(img[0], want / want.max(), atol=1e-12)

    def test_pooling_layer_rejected(self):
        spec = NetworkSpec(Shape3(1, 4, 4), [
            LayerSpec("conv", 1, 1, 1, 1, 0),
            LayerSpec("pool", 2, 2, 1, 2, 0),
        ])
        net = Network(spec)
        net.weights[0] = np.ones((1, 1, 1, 1))
        net.thresholds[0] = np.ones(1)
        with pytest.raises(ValueError, match="pooling"):
            reconstruct_filter(net, 1, 0)

    @pytest.mark.parametrize("bad", [2, -1, True, 1.0])
    def test_bad_map_index_rejected(self, bad):
        # a bool is no map index: True would render map 1
        spec = NetworkSpec(Shape3(1, 4, 4), [LayerSpec("conv", 1, 1, 2, 1, 0)])
        net = Network(spec)
        net.weights[0] = np.ones((2, 1, 1, 1))
        net.thresholds[0] = np.ones(2)
        with pytest.raises(ValueError, match=f"^map {bad} out of range for layer 0$"):
            reconstruct_filter(net, 0, bad)

    def test_feature_extraction_reproducible(self):
        net = _feature_net(seed=12)
        rng = np.random.default_rng(13)
        grids = [np.where(rng.random((2, 4, 4)) < 0.6, rng.random((2, 4, 4)), np.inf)
                 for _ in range(3)]
        a = extract_features(net, grids, 1.0)
        b = extract_features(net, grids, 1.0)
        assert np.array_equal(a, b)
