import numpy as np
import pytest

from spikeconv import (
    AdditiveStdp,
    BiologicalStdp,
    CodingWindow,
    EnsembleMember,
    LayerSpec,
    MultiplicativeStdp,
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
from spikeconv.training import layer_t_targets, train_layer

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
        patch = sample_patch(rng, field, 4, 4)
        assert np.array_equal(patch, field)

    def test_empty_field_gives_empty_patch(self):
        rng = np.random.default_rng(3)
        patch = sample_patch(rng, np.full((2, 6, 6), np.inf), 3, 3)
        assert not np.isfinite(patch).any()

    def test_reseeded_stream_repeats_patch(self):
        field = np.where(np.random.default_rng(4).random((2, 9, 9)) < 0.5, 0.5, np.inf)
        a = sample_patch(RngStreams(7).stream("patches", 0), field, 3, 3)
        b = sample_patch(RngStreams(7).stream("patches", 0), field, 3, 3)
        assert np.array_equal(a, b)

    def test_padding_contributes_silence(self):
        field = np.zeros((1, 2, 2))  # all sites spike at t=0
        rng = np.random.default_rng(5)
        seen_pad = False
        for _ in range(40):
            patch = sample_patch(rng, field, 2, 2, stride=1, padding=1)
            assert patch.shape == (1, 2, 2)
            if not np.isfinite(patch).all():
                seen_pad = True
        assert seen_pad

    def test_oversized_patch_rejected(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            sample_patch(rng, np.full((1, 3, 3), np.inf), 5, 5)


class TestTrainLayer:
    def test_pooling_layer_rejected(self):
        spec = _tiny_spec()
        with pytest.raises(ValueError, match="pooling"):
            train_layer(spec, 1, [np.full((4, 6, 6), np.inf)], _quick_cfg(),
                        RngStreams(0), 0.7)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train_layer(_tiny_spec(), 0, [], _quick_cfg(), RngStreams(0), 0.7)

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
