import numpy as np
import pytest

from spikeconv import (
    AdditiveStdp,
    BiologicalStdp,
    MultiplicativeStdp,
    ThresholdParams,
    adapt_threshold_target,
    adapt_threshold_winner,
    apply_stdp,
)
from spikeconv.plasticity import stdp_delta_array

from oracles import adapt_threshold_wta, stdp_delta

SILENT = np.inf


def _delta(rule, pre, t_post, w, t_end=1.0):
    """stdp_delta_array over scalars or lists; SILENT marks a silent input."""
    return stdp_delta_array(rule, np.asarray(pre, dtype=float), t_post,
                            np.asarray(w, dtype=float), t_end=t_end)


class TestStdpDelta:
    def test_additive_potentiation(self):
        assert _delta(AdditiveStdp(0.1), 0.2, 0.5, 0.5) == pytest.approx(0.1)

    def test_additive_depression_on_silent_input(self):
        assert _delta(AdditiveStdp(0.1), SILENT, 0.5, 0.5) == pytest.approx(-0.1)

    def test_multiplicative_boundary(self):
        # at W == W_min the potentiation exponential is exp(0) == 1
        d = _delta(MultiplicativeStdp(0.1, 1.0), 0.2, 0.5, 0.0)
        assert d == pytest.approx(0.1)

    def test_biological_zero_delay(self):
        d = _delta(BiologicalStdp(0.1, 0.1), 0.5, 0.5, 0.5)
        assert d == pytest.approx(0.1)

    def test_biological_growth_with_delay_as_published(self):
        near, far = _delta(BiologicalStdp(0.1, 0.1), [0.45, 0.1], 0.5, 0.5)
        assert far > near > 0

    def test_biological_decay_variant(self):
        rule = BiologicalStdp(0.1, 0.1, decay_with_delay=True)
        near, far = _delta(rule, [0.45, 0.1], 0.5, 0.5)
        assert 0 < far < near

    def test_biological_silent_input_uses_latest_time(self):
        rule = BiologicalStdp(0.1, 0.1)
        silent, late = _delta(rule, [SILENT, 1.0], 0.7, 0.5)
        assert silent == pytest.approx(late)
        assert silent < 0
        # the latest time is the end of the window the caller codes in
        silent, late = _delta(rule, [SILENT, 2.0], 0.7, 0.5, t_end=2.0)
        assert silent == pytest.approx(late)

    def test_silent_input_depresses_even_at_t_end(self):
        # a silent line must not slip into the potentiation branch when the
        # neuron fires exactly at the end of the window
        assert _delta(BiologicalStdp(0.1, 0.1), SILENT, 1.0, 0.5) < 0

    def test_scalar_and_array_agree(self):
        rng = np.random.default_rng(5)
        pre = np.where(rng.random(64) < 0.3, np.inf, rng.random(64))
        w = rng.random(64)
        for rule in (AdditiveStdp(0.07), MultiplicativeStdp(0.1, 2.3),
                     BiologicalStdp(0.1, 0.2), BiologicalStdp(0.1, 0.2, True)):
            for t_end in (1.0, 1.5):
                arr = stdp_delta_array(rule, pre, 0.6, w, t_end=t_end)
                ref = [stdp_delta(rule, None if not np.isfinite(p) else float(p), 0.6,
                                  float(ww), t_end=t_end)
                       for p, ww in zip(pre, w)]
                assert np.allclose(arr, ref, atol=1e-15)


class TestApplyStdp:
    def test_additive_moves_toward_max_when_all_inputs_early(self):
        w = np.full((2, 1, 2, 2), 0.5)
        pre = np.full((1, 2, 2), 0.1)
        apply_stdp(w, 0, pre, 0.5, AdditiveStdp(0.1), t_end=1.0)
        assert np.allclose(w[0], 0.6)
        assert np.allclose(w[1], 0.5)  # non-winner untouched

    def test_additive_moves_toward_min_when_silent(self):
        w = np.full((1, 1, 2, 2), 0.05)
        pre = np.full((1, 2, 2), np.inf)
        apply_stdp(w, 0, pre, 0.5, AdditiveStdp(0.1), t_end=1.0)
        assert np.allclose(w[0], 0.0)  # clipped at the bound

    def test_multiplicative_reference_grid(self):
        # frozen from an independent per-synapse scalar evaluation
        w = np.array([[[0.78, 0.61, 0.71],
                       [0.09, 0.63, 0.98],
                       [0.42, 0.11, 0.96]]])[None].copy()
        w = w.reshape(1, 1, 3, 3)
        pre = np.array([[[0.1, 0.5, np.inf],
                         [0.7, 0.2, 0.9],
                         [np.inf, 0.65, 0.3]]])
        apply_stdp(w, 0, pre, 0.6, MultiplicativeStdp(0.1, 2.0), t_end=1.0)
        expected = np.array([[[0.80101361, 0.63952302, 0.65401016],
                              [0.07379742, 0.6583654, 0.88392106],
                              [0.38865138, 0.09313619, 0.9746607]]])
        assert np.allclose(w[0, 0], expected[0], atol=1e-7)


class TestThresholdTarget:
    def test_late_fire_lowers(self):
        p = ThresholdParams(t_target=0.7, eta_th=1.0, th_min=1.0)
        assert adapt_threshold_target(5.0, 0.9, p) == pytest.approx(4.8)

    def test_early_fire_raises(self):
        p = ThresholdParams(t_target=0.7, eta_th=1.0, th_min=1.0)
        assert adapt_threshold_target(5.0, 0.5, p) == pytest.approx(5.2)

    def test_floor(self):
        p = ThresholdParams(t_target=0.7, eta_th=1.0, th_min=1.0)
        assert adapt_threshold_target(1.05, 0.9, p) == 1.0


class TestThresholdWta:
    def test_winner_up_losers_down(self):
        th = np.array([5.0, 5.0, 5.0, 5.0])
        fires = [None, None, 0.4, None]
        out = adapt_threshold_wta(th, fires, 1.0, 1.0)
        # the three losers give back exactly the winner's gain
        assert np.allclose(out, [5.0 - 1 / 3, 5.0 - 1 / 3, 6.0, 5.0 - 1 / 3])
        assert out.sum() == pytest.approx(th.sum())

    def test_loser_floor(self):
        out = adapt_threshold_wta(np.array([2.0, 1.0]), [0.3, None], 1.0, 1.0)
        assert np.allclose(out, [3.0, 1.0])

    def test_single_neuron(self):
        out = adapt_threshold_wta(np.array([2.0]), [0.5], 1.0, 1.0)
        assert np.allclose(out, [3.0])

    def test_earliest_fire_wins_with_index_tiebreak(self):
        out = adapt_threshold_wta(np.array([4.0, 4.0, 4.0]), [0.5, 0.2, 0.2], 1.0, 1.0)
        assert out[1] == pytest.approx(5.0)
        assert out[0] == out[2] == pytest.approx(4.0 - 1.0 / 2.0)

    def test_requires_a_winner(self):
        with pytest.raises(ValueError):
            adapt_threshold_wta(np.array([4.0]), [None], 1.0, 1.0)

    def test_winner_index_step_is_the_fire_time_step(self):
        # training steps from the winner's index; the result is bitwise the
        # one the fire-time list gives
        rng = np.random.default_rng(4)
        for n in (1, 2, 7, 512):
            th = rng.uniform(1.0, 9.0, n)
            winner = int(rng.integers(n))
            fires = [None] * n
            fires[winner] = 0.3
            want = adapt_threshold_wta(th, fires, 0.37, 1.5)
            assert np.array_equal(adapt_threshold_winner(th, winner, 0.37, 1.5), want)


class TestBoundsProperties:
    def test_weights_stay_in_bounds(self):
        rng = np.random.default_rng(9)
        rules = [AdditiveStdp(0.5), MultiplicativeStdp(0.5, 3.0),
                 BiologicalStdp(0.5, 0.05), BiologicalStdp(0.5, 0.05, True)]
        for _ in range(200):
            rule = rules[int(rng.integers(len(rules)))]
            w = rng.uniform(0, 1, (3, 2, 2, 2))
            pre = np.where(rng.random((2, 2, 2)) < 0.3, np.inf, rng.random((2, 2, 2)))
            apply_stdp(w, int(rng.integers(3)), pre, float(rng.random()), rule, t_end=1.0)
            assert np.all(w >= 0.0) and np.all(w <= 1.0)

    def test_thresholds_never_below_floor(self):
        rng = np.random.default_rng(10)
        th = rng.uniform(1.0, 6.0, 5)
        p = ThresholdParams(t_target=0.5, eta_th=1.0, th_min=1.0)
        for _ in range(500):
            if rng.random() < 0.5:
                i = int(rng.integers(5))
                th[i] = adapt_threshold_target(th[i], float(rng.random()), p)
            else:
                fires = [float(rng.random()) if rng.random() < 0.5 else None
                         for _ in range(5)]
                if any(f is not None for f in fires):
                    th = adapt_threshold_wta(th, fires, 1.0, 1.0)
            assert np.all(th >= 1.0)

    def test_multiplicative_pull_monotonicity(self):
        # potentiation shrinks as W grows; depression shrinks as W falls
        rule = MultiplicativeStdp(0.1, 2.0)
        ws = np.linspace(0, 1, 11)
        pots = _delta(rule, np.full(ws.size, 0.1), 0.5, ws)
        deps = np.abs(_delta(rule, np.full(ws.size, 0.9), 0.5, ws))
        assert np.all(np.diff(pots) < 0)
        assert np.all(np.diff(deps) > 0)


class TestValidation:
    def test_rule_parameter_validation(self):
        with pytest.raises(ValueError):
            AdditiveStdp(0.0)
        with pytest.raises(ValueError):
            MultiplicativeStdp(0.1, 0.0)
        with pytest.raises(ValueError):
            BiologicalStdp(0.1, 0.0)
        with pytest.raises(ValueError):
            ThresholdParams(eta_th=0.0)
        with pytest.raises(ValueError):
            ThresholdParams(th_min=0.0)
