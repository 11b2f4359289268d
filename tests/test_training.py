import numpy as np
import pytest

from spikeconv import (
    AdditiveStdp,
    BiologicalStdp,
    CodingWindow,
    EnsembleMember,
    LayerSpec,
    MultiplicativeStdp,
    Network,
    NetworkSpec,
    RngStreams,
    Shape3,
    TrainConfig,
    TrainingLog,
    encode_dataset,
    extract_features,
    sample_patch,
    train_ensemble,
    train_network,
)
from spikeconv.modelio import network_bytes
from spikeconv.plasticity import apply_stdp
from spikeconv.simulate import column_response, forward_layer
from spikeconv.training import layer_t_targets, train_layer

from oracles import naive_patch
from util import synthetic_convergence_run


def _tiny_spec(out_maps: int = 6) -> NetworkSpec:
    return NetworkSpec(Shape3(2, 8, 8), [
        LayerSpec("conv", 3, 3, 4, 1, 0),
        LayerSpec("pool", 2, 2, 4, 2, 0),
        LayerSpec("fc", 3, 3, out_maps, 1, 0),
    ])


def _tiny_images(n: int = 6, seed: int = 0):
    rng = np.random.default_rng(seed)
    return [rng.random((8, 8)) for _ in range(n)]


def _quick_cfg(**kw) -> TrainConfig:
    kw.setdefault("n_epoch", 2)
    kw.setdefault("rule", MultiplicativeStdp(0.1, 1.0))
    return TrainConfig(**kw)


class TestShuffle:
    def test_shuffled_order_is_seeded(self):
        # the order stream is keyed by the seed: the same seed gives the same
        # model, and visiting the samples in a drawn order changes it
        spec, images = _tiny_spec(), _tiny_images()
        a = train_network(spec, images, _quick_cfg(shuffle=True), seed=5)
        b = train_network(spec, images, _quick_cfg(shuffle=True), seed=5)
        plain = train_network(spec, images, _quick_cfg(), seed=5)
        assert network_bytes(a) == network_bytes(b)
        assert network_bytes(a) != network_bytes(plain)


class TestAnnealing:
    def test_learning_rate_schedule_in_log(self):
        log = TrainingLog()
        spec = NetworkSpec(Shape3(2, 3, 3), [LayerSpec("conv", 3, 3, 2, 1, 0)])
        grids = [np.where(np.random.default_rng(1).random((2, 3, 3)) < 0.8, 0.3, np.inf)]
        cfg = _quick_cfg(n_epoch=4, rule=AdditiveStdp(0.1))
        train_layer(spec, 0, grids, cfg, RngStreams(0), 0.7, log)
        etas = [float(r[2]) for r in log.rows]
        assert etas == pytest.approx([0.1, 0.095, 0.09025, 0.0857375])
        eth = [float(r[3]) for r in log.rows]
        assert eth == pytest.approx([1.0, 0.95, 0.9025, 0.857375])
        # strictly decreasing and positive
        assert all(a > b > 0 for a, b in zip(etas, etas[1:]))


class TestSamplePatch:
    def test_full_size_patch_is_identity(self):
        rng = np.random.default_rng(2)
        field = np.where(rng.random((3, 4, 4)) < 0.5, 0.25, np.inf)
        patch = sample_patch(rng, field, LayerSpec("conv", 4, 4, 1))
        assert np.array_equal(patch, field)

    def test_empty_field_gives_empty_patch(self):
        rng = np.random.default_rng(3)
        patch = sample_patch(rng, np.full((2, 6, 6), np.inf), LayerSpec("conv", 3, 3, 1))
        assert not np.isfinite(patch).any()

    def test_reseeded_stream_repeats_patch(self):
        field = np.where(np.random.default_rng(4).random((2, 9, 9)) < 0.5, 0.5, np.inf)
        layer = LayerSpec("conv", 3, 3, 1)
        a = sample_patch(RngStreams(7).stream("patches", 0), field, layer)
        b = sample_patch(RngStreams(7).stream("patches", 0), field, layer)
        assert np.array_equal(a, b)

    def test_padding_contributes_silence(self):
        field = np.zeros((1, 2, 2))  # all sites spike at t=0
        rng = np.random.default_rng(5)
        seen_pad = False
        for _ in range(40):
            patch = sample_patch(rng, field, LayerSpec("conv", 2, 2, 1, stride=1, padding=1))
            assert patch.shape == (1, 2, 2)
            if not np.isfinite(patch).all():
                seen_pad = True
        assert seen_pad

    def test_oversized_patch_rejected(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            sample_patch(rng, np.full((1, 3, 3), np.inf), LayerSpec("conv", 5, 5, 1))

    def test_matches_site_by_site_oracle(self):
        # the window plan's row equals the window read site by site from
        # its corner offset, for the same draw, over strides, paddings and shapes
        rng = np.random.default_rng(8)
        for _ in range(300):
            d, h, w = (int(v) for v in rng.integers(1, 8, 3))
            fh, fw = (int(v) for v in rng.integers(1, 5, 2))
            stride, padding = int(rng.integers(1, 3)), int(rng.integers(0, 3))
            if min(h + 2 * padding - fh, w + 2 * padding - fw) < 0:
                continue
            field = np.where(rng.random((d, h, w)) < 0.6, rng.random((d, h, w)), np.inf)
            seed = int(rng.integers(1 << 30))
            got = sample_patch(np.random.default_rng(seed), field,
                               LayerSpec("conv", fh, fw, 2, stride, padding))
            want = naive_patch(np.random.default_rng(seed), field, fh, fw, stride, padding)
            assert np.array_equal(got, want)

    def test_window_wholly_in_padding_is_silent(self):
        # padding wider than the filter: corner windows see no field site
        field = np.zeros((1, 2, 2))
        rng = np.random.default_rng(9)
        patches = [sample_patch(rng, field, LayerSpec("conv", 1, 1, 1, 1, 2))
                   for _ in range(40)]
        assert any(not np.isfinite(p).any() for p in patches)
        assert any(np.isfinite(p).all() for p in patches)

    def test_pooling_layer_rejected(self):
        with pytest.raises(ValueError, match="pooling"):
            sample_patch(np.random.default_rng(0), np.zeros((1, 4, 4)),
                         LayerSpec("pool", 2, 2, 1, 2))


class TestTrainLayer:
    def test_pooling_layer_rejected(self):
        spec = _tiny_spec()
        with pytest.raises(ValueError, match="pooling"):
            train_layer(spec, 1, [np.full((4, 6, 6), np.inf)], _quick_cfg(),
                        RngStreams(0), 0.7)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train_layer(_tiny_spec(), 0, [], _quick_cfg(), RngStreams(0), 0.7)

    @pytest.mark.parametrize("shape", [(2, 6, 6), (3, 8, 8)])
    def test_field_of_another_shape_rejected(self, shape):
        # a smaller field would train silently, a deeper one fail inside numpy
        grids = [np.full((2, 8, 8), 0.5), np.full(shape, 0.5)]
        with pytest.raises(ValueError, match=rf"^sample 1: input grid shape \({shape[0]}, "
                                             rf"{shape[1]}, {shape[2]}\) does not match "
                                             r"layer 0 input \(2, 8, 8\)$"):
            train_layer(_tiny_spec(), 0, grids, _quick_cfg(), RngStreams(0), 0.7)

    def test_field_with_nan_rejected(self):
        grid = np.full((2, 8, 8), 0.5)
        grid[1, 2, 3] = np.nan
        with pytest.raises(ValueError, match="^sample 0: input spike times contain NaN"):
            train_layer(_tiny_spec(), 0, [grid], _quick_cfg(), RngStreams(0), 0.7)

    def test_single_sample_additive_binarizes(self):
        # repeated additive updates on one stationary sample drive the
        # winner's weights to the bounds
        spec = NetworkSpec(Shape3(2, 3, 3), [LayerSpec("conv", 3, 3, 1, 1, 0)])
        rng = np.random.default_rng(8)
        grid = np.where(rng.random((2, 3, 3)) < 0.5, 0.2, np.inf)
        cfg = TrainConfig(n_epoch=60, anneal=1.0, rule=AdditiveStdp(0.1))
        w, th = train_layer(spec, 0, [grid], cfg, RngStreams(1), 0.7)
        assert np.all((w < 1e-9) | (w > 1 - 1e-9))

    def test_no_winner_step_mode_decrements_all_thresholds(self):
        spec = NetworkSpec(Shape3(1, 2, 2), [LayerSpec("conv", 2, 2, 3, 1, 0)])
        grid = np.full((1, 2, 2), np.inf)  # silent: never any winner
        cfg = _quick_cfg(n_epoch=1, v_th_mean=50.0, v_th_std=0.0, no_winner="step")
        w0 = RngStreams(2).stream("weights", 0).uniform(0, 1, (3, 1, 2, 2))
        w, th = train_layer(spec, 0, [grid, grid], cfg, RngStreams(2), 0.7)
        assert np.allclose(th, 48.0)  # two full eta_th steps
        assert np.array_equal(w, w0)  # no weight update happened

    def test_no_winner_share_mode(self):
        spec = NetworkSpec(Shape3(1, 2, 2), [LayerSpec("conv", 2, 2, 4, 1, 0)])
        grid = np.full((1, 2, 2), np.inf)
        cfg = _quick_cfg(n_epoch=1, v_th_mean=50.0, v_th_std=0.0, no_winner="share")
        _, th = train_layer(spec, 0, [grid], cfg, RngStreams(2), 0.7)
        assert np.allclose(th, 50.0 - 1.0 / 4.0)

    def test_silent_inputs_timed_at_the_window_end(self):
        # the biological rule times a silent input at the end of the coding
        # window the layer trains in: 2.0 here
        spec = NetworkSpec(Shape3(1, 2, 2), [LayerSpec("conv", 2, 2, 1, 1, 0)])
        grid = np.array([[[0.1, 0.2], [np.inf, np.inf]]])
        cfg = TrainConfig(n_epoch=1, rule=BiologicalStdp(0.01, 1.0),
                          window=CodingWindow(0.0, 2.0),
                          v_th_mean=0.01, v_th_std=0.0, th_min=0.01)
        w0 = RngStreams(4).stream("weights", 0).uniform(0, 1, (1, 1, 2, 2))
        w, _ = train_layer(spec, 0, [grid], cfg, RngStreams(4), 0.7)
        assert w0[0, 0, 0, 0] >= 0.01  # the first input alone fires the neuron
        t_post = 0.1
        for y, x in ((1, 0), (1, 1)):
            want = max(0.0, w0[0, 0, y, x] - 0.01 * np.exp(2.0 - t_post))
            assert w[0, 0, y, x] == pytest.approx(want, abs=1e-15)


class TestInputMajorColumn:
    """``train_layer`` keeps its column input-major and hands ``column_response``
    and ``apply_stdp`` the map-major view of it."""

    @staticmethod
    def _layouts(rng, maps=12, shape=(3, 4, 4)):
        weights = rng.uniform(0.0, 1.0, (maps,) + shape)
        w_in = np.ascontiguousarray(weights.reshape(maps, -1).T)
        view = w_in.T.reshape(weights.shape)
        assert np.shares_memory(view, w_in) and np.array_equal(view, weights)
        return weights, w_in, view

    def test_column_response_reads_both_layouts_alike(self):
        rng = np.random.default_rng(21)
        weights, _, view = self._layouts(rng)
        results = set()
        for scale in (0.05, 0.3, 1.5):
            for _ in range(10):
                patch = np.where(rng.random((3, 4, 4)) < 0.4, np.inf, rng.random((3, 4, 4)))
                thresholds = rng.uniform(0.5, 1.0, 12) * scale * np.isfinite(patch).sum()
                res = column_response(patch, weights, thresholds)
                assert column_response(patch, view, thresholds) == res
                results.add(res.winner is None)
        assert results == {True, False}

    def test_stdp_on_the_view_changes_only_the_winner(self):
        rng = np.random.default_rng(22)
        weights, w_in, view = self._layouts(rng)
        patch = np.where(rng.random((3, 4, 4)) < 0.4, np.inf, rng.random((3, 4, 4)))
        rule = BiologicalStdp(0.1, 0.2)
        before = view.copy()
        apply_stdp(view, 5, patch, 0.4, rule, t_end=1.0)
        apply_stdp(weights, 5, patch, 0.4, rule, t_end=1.0)
        assert np.array_equal(view, weights)  # the update reached the input-major copy
        changed = np.nonzero((view != before).reshape(12, -1).any(axis=1))[0]
        assert changed.tolist() == [5]
        assert np.array_equal(w_in.T.reshape(weights.shape), weights)

    def test_returns_the_map_major_view_of_an_input_major_column(self):
        spec = _tiny_spec()
        rng = np.random.default_rng(23)
        grids = [np.where(rng.random((2, 8, 8)) < 0.5, rng.random((2, 8, 8)), np.inf)
                 for _ in range(4)]
        w, th = train_layer(spec, 0, grids, _quick_cfg(), RngStreams(3), 0.7)
        # the map-major view of the input-major column the network stores
        assert w.shape == spec.weight_shape(0) and w.reshape(4, -1).T.flags.c_contiguous
        assert th.shape == (4,)


class TestTrainNetwork:
    def test_trains_every_trainable_layer(self):
        net = train_network(_tiny_spec(), _tiny_images(), _quick_cfg(), seed=3)
        assert net.weights[0] is not None
        assert net.weights[1] is None  # pooling holds no state
        assert net.weights[2] is not None
        assert net.t_targets[0] == net.t_targets[2] == 0.7

    def test_published_architectures_have_three_trainable_layers(self):
        mnist = NetworkSpec(Shape3(2, 28, 28), [
            LayerSpec("conv", 5, 5, 32, 1, 0),
            LayerSpec("pool", 2, 2, 32, 2, 0),
            LayerSpec("conv", 5, 5, 128, 1, 0),
            LayerSpec("pool", 2, 2, 128, 2, 0),
            LayerSpec("fc", 4, 4, 4096, 1, 0),
        ])
        assert len(mnist.trainable_indices()) == 3
        assert mnist.out_shape.astuple() == (4096, 1, 1)
        faces = NetworkSpec(Shape3(2, 160, 250), [
            LayerSpec("conv", 5, 5, 32, 1, 2),
            LayerSpec("pool", 7, 7, 32, 6, 3),
            LayerSpec("conv", 17, 17, 64, 1, 8),
            LayerSpec("pool", 5, 5, 64, 5, 2),
            LayerSpec("conv", 5, 5, 128, 1, 2),
        ])
        assert len(faces.trainable_indices()) == 3

    def test_same_seed_reproduces_identical_model_bytes(self):
        images = _tiny_images()
        a = train_network(_tiny_spec(), images, _quick_cfg(), seed=11)
        b = train_network(_tiny_spec(), images, _quick_cfg(), seed=11)
        assert network_bytes(a) == network_bytes(b)
        c = train_network(_tiny_spec(), images, _quick_cfg(), seed=12)
        assert network_bytes(a) != network_bytes(c)

    def test_frozen_prefix_not_mutated(self):
        # training deeper layers must leave earlier parameters bit-identical
        spec = _tiny_spec()
        images = _tiny_images()
        cfg = _quick_cfg()
        streams = RngStreams(5)
        grids = encode_dataset(images, cfg.dog, cfg.window)
        w0, th0 = train_layer(spec, 0, grids, cfg, streams, 0.7)
        sum_before = (w0.copy(), th0.copy())
        net = train_network(spec, images, cfg, seed=5)
        assert np.array_equal(net.weights[0], sum_before[0])
        assert np.array_equal(net.thresholds[0], sum_before[1])

    def test_encoded_grids_with_nan_or_minus_inf_rejected(self):
        # the training entry refuses the grids the inference entry refuses,
        # with the same message
        cfg = _quick_cfg()
        net = train_network(_tiny_spec(), _tiny_images(), cfg, seed=3)
        for bad, name in ((np.nan, "NaN"), (-np.inf, "-inf")):
            grids = encode_dataset(_tiny_images(), cfg.dog, cfg.window)
            grids[3][1, 4, 2] = bad
            with pytest.raises(ValueError, match=f"input spike times contain {name}") as trained:
                train_network(_tiny_spec(), None, cfg, seed=3, encoded=grids)
            with pytest.raises(ValueError) as extracted:
                extract_features(net, grids, cfg.window.t_end)
            assert str(trained.value) == str(extracted.value)

    def test_bad_image_named_by_its_index(self):
        images = _tiny_images()
        images[4][3, 5] = np.inf
        with pytest.raises(ValueError, match="^image 4: image contains non-finite values$"):
            train_network(_tiny_spec(), images, _quick_cfg(), seed=3)

    def test_each_sample_advances_once_through_frozen_layers(self, monkeypatch):
        # conv-pool-conv-pool: the samples pass layers 0 and 1 once each, in
        # stacks, in one pass before layer 2 trains; nothing runs after the
        # last trainable layer. The model equals the layer-by-layer protocol's.
        import spikeconv.simulate as simulate

        spec = NetworkSpec(Shape3(2, 10, 10), [
            LayerSpec("conv", 3, 3, 4, 1, 0), LayerSpec("pool", 2, 2, 4, 2, 0),
            LayerSpec("conv", 3, 3, 3, 1, 0), LayerSpec("pool", 2, 2, 3, 2, 0),
        ])
        images = [np.random.default_rng(s).random((10, 10)) for s in range(5)]
        cfg = _quick_cfg()
        streams = RngStreams(9)
        grids = encode_dataset(images, cfg.dog, cfg.window)
        want = Network(spec, cfg.w_min, cfg.w_max)
        for i in (0, 2):
            want.install_column(i, *train_layer(spec, i, grids, cfg, streams, 0.7), 0.7)
            grids = [forward_layer(want, i + 1, forward_layer(want, i, g)) for g in grids]

        calls = []  # (layer, input stack, output stack)
        real = simulate.forward_layer

        def spy(net, i, g, p):
            out = real(net, i, g, p)
            calls.append((i, g, out))
            return out

        monkeypatch.setattr(simulate, "forward_layer", spy)
        # stacks of 2, 2 and 1
        monkeypatch.setattr(simulate, "stack_size", lambda spec, start=0, stop=None: 2)
        net = train_network(spec, images, cfg, seed=9)
        assert [(i, len(g)) for i, g, _ in calls] == [(0, 2), (1, 2)] * 2 + [(0, 1), (1, 1)]
        # layer 0 sees every encoded sample once, in order; layer 1 every
        # output of layer 0 once
        encoded = encode_dataset(images, cfg.dog, cfg.window)
        assert np.array_equal(np.concatenate([g for i, g, _ in calls if i == 0]), np.stack(encoded))
        assert np.array_equal(np.concatenate([g for i, g, _ in calls if i == 1]),
                              np.concatenate([o for i, _, o in calls if i == 0]))
        assert network_bytes(net) == network_bytes(want)

    def test_grid_of_another_shape_rejected_before_training(self, monkeypatch):
        # a stack holds one shape; a stray grid is named before any layer trains
        import spikeconv.training as training

        trained = []
        monkeypatch.setattr(training, "train_layer", lambda *a, **k: trained.append(a[1]))
        cfg = _quick_cfg()
        grids = encode_dataset(_tiny_images(), cfg.dog, cfg.window)
        grids[4] = grids[4][:, :5, :]
        with pytest.raises(ValueError, match=r"^sample 4: input grid shape \(2, 5, 8\) does not "
                                             r"match the network input \(2, 8, 8\)"):
            train_network(_tiny_spec(), None, cfg, seed=3, encoded=grids)
        assert trained == []

    def test_list_grids_train_the_model_the_arrays_train(self):
        cfg = _quick_cfg()
        grids = encode_dataset(_tiny_images(), cfg.dog, cfg.window)
        want = train_network(_tiny_spec(), None, cfg, seed=3, encoded=grids)
        got = train_network(_tiny_spec(), None, cfg, seed=3, encoded=[g.tolist() for g in grids])
        assert network_bytes(got) == network_bytes(want)
        for bad in ("abc", [[[0.1, 0.2], [0.3]]]):
            with pytest.raises(ValueError, match="^sample 0: input grid is not an array of spike "
                                                 "times"):
                train_network(_tiny_spec(), None, cfg, seed=3, encoded=[bad] + grids[1:])

    def test_broadcast_shares_one_filter_bank(self):
        net = train_network(_tiny_spec(), _tiny_images(), _quick_cfg(), seed=3)
        # one parameter set per layer serves every column by construction
        assert net.weights[0].shape == (4, 2, 3, 3)
        assert net.thresholds[0].shape == (4,)


class TestTTargets:
    def test_delta_offsets_per_trainable_layer(self):
        spec = _tiny_spec()
        cfg = TrainConfig(t_target=0.75, delta_t=-0.05)
        assert layer_t_targets(spec, cfg) == pytest.approx([0.75, 0.70])

    def test_clipping_into_window(self):
        spec = _tiny_spec()
        cfg = TrainConfig(t_target=0.75, delta_t=0.4)
        assert layer_t_targets(spec, cfg) == pytest.approx([0.75, 1.0])
        cfg = TrainConfig(t_target=0.75, delta_t=-0.9)
        assert layer_t_targets(spec, cfg) == pytest.approx([0.75, 0.0])

    def test_explicit_override(self):
        spec = _tiny_spec()
        cfg = TrainConfig(t_targets=(0.3, 0.9))
        assert layer_t_targets(spec, cfg) == pytest.approx([0.3, 0.9])
        with pytest.raises(ValueError):
            layer_t_targets(spec, TrainConfig(t_targets=(0.3,)))

    def test_explicit_targets_and_offset_rejected_together(self):
        with pytest.raises(ValueError, match="not both"):
            TrainConfig(t_targets=(0.3, 0.9), delta_t=0.05)


class TestEnsemble:
    def test_degenerate_single_member_matches_train_network(self):
        images = _tiny_images()
        cfg = _quick_cfg(t_target=0.75)
        members = [EnsembleMember(0.75, 6)]
        nets = train_ensemble(_tiny_spec(), images, cfg, 9, members)
        assert len(nets) == 1
        member_seed = RngStreams(9).child(int(round(0.75 * 2 ** 30)), 6).seed
        solo = train_network(_tiny_spec(6), images, cfg, member_seed)
        assert network_bytes(nets[0]) == network_bytes(solo)

    def test_member_widths_and_targets(self):
        images = _tiny_images(4)
        members = [EnsembleMember(t, 3) for t in (0.65, 0.7, 0.75, 0.8)]
        nets = train_ensemble(_tiny_spec(), images, _quick_cfg(), 9, members)
        assert [n.spec.out_shape.depth for n in nets] == [3, 3, 3, 3]
        assert [n.output_t_target for n in nets] == pytest.approx([0.65, 0.7, 0.75, 0.8])

    def test_member_contents_independent_of_order(self):
        # permuting members permutes the feature blocks, not their contents
        images = _tiny_images(4)
        m1 = [EnsembleMember(0.6, 3), EnsembleMember(0.8, 4)]
        m2 = [EnsembleMember(0.8, 4), EnsembleMember(0.6, 3)]
        a = train_ensemble(_tiny_spec(), images, _quick_cfg(), 9, m1)
        b = train_ensemble(_tiny_spec(), images, _quick_cfg(), 9, m2)
        assert network_bytes(a[0]) == network_bytes(b[1])
        assert network_bytes(a[1]) == network_bytes(b[0])

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError):
            train_ensemble(_tiny_spec(), _tiny_images(2), _quick_cfg(), 9, [])


class TestLogFormat:
    def test_csv_shape_and_determinism(self):
        log = TrainingLog()
        spec = NetworkSpec(Shape3(2, 4, 4), [LayerSpec("conv", 3, 3, 2, 1, 0)])
        rng = np.random.default_rng(1)
        grids = [np.where(rng.random((2, 4, 4)) < 0.7, 0.4, np.inf) for _ in range(3)]
        train_layer(spec, 0, grids, _quick_cfg(n_epoch=3), RngStreams(0), 0.7, log)
        text = log.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "layer,epoch,eta_w,eta_th,samples,no_winner,mean_winner_time,win_counts"
        assert len(lines) == 4
        for row in lines[1:]:
            assert len(row.split(",")) == 8

        log2 = TrainingLog()
        train_layer(spec, 0, grids, _quick_cfg(n_epoch=3), RngStreams(0), 0.7, log2)
        assert log2.to_csv() == text


class TestConvergenceQuick:
    def test_winner_times_approach_target(self):
        mean_t, share, _ = synthetic_convergence_run(0.7, seed=1)
        assert abs(mean_t - 0.7) <= 0.05
        assert share <= 0.9
