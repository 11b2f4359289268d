import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spikeconv import (
    InhibitionPolicy,
    LayerSpec,
    Network,
    NetworkSpec,
    NO_INHIBITION,
    Shape3,
    column_response,
)
from spikeconv.simulate import forward_layer, forward_times

from oracles import DenseSimulator
from util import drawn_network, random_grid, random_network

INF = np.inf
# a lone neuron has no competitor, so each policy gives the same output: the
# first runs the crossing engine, the other two the event engine
ONE_NEURON_POLICIES = [NO_INHIBITION, InhibitionPolicy("soft", v_inh=0.5),
                       InhibitionPolicy("wta", scope="layer")]
# every policy, so both routes (crossing engine: none, soft with v_inh=0,
# column WTA and column soft in a conv layer; event engine: layer scope, and
# WTA or soft in a one-position fc layer) meet the same strides, paddings,
# time ties and one-position fc layers
SWEEP_POLICIES = [
    InhibitionPolicy("none"),
    InhibitionPolicy("soft", v_inh=0.0),
    InhibitionPolicy("soft", v_inh=0.4),
    InhibitionPolicy("soft", v_inh=1.0),
    InhibitionPolicy("wta"),
    InhibitionPolicy("wta", scope="layer"),
    InhibitionPolicy("soft", v_inh=0.7, scope="layer"),
    InhibitionPolicy("wta", layers="output"),
    InhibitionPolicy("wta", scope="layer", layers="output"),
    InhibitionPolicy("soft", v_inh=1.0, layers="output"),
]


def _one_neuron(weights, threshold):
    """One IF neuron at one position over a (1, 1, n) input row."""
    n = len(weights)
    spec = NetworkSpec(Shape3(1, 1, n), [LayerSpec("fc", 1, n, 1, 1, 0)])
    net = Network(spec)
    net.weights[0] = np.asarray(weights, dtype=float).reshape(1, 1, 1, n)
    net.thresholds[0] = np.array([float(threshold)])
    return net


def _fire_time(net, times, policy=NO_INHIBITION):
    return forward_layer(net, 0, np.array(times, dtype=float).reshape(1, 1, -1), policy)[0, 0, 0]


class TestIntegrate:
    def test_threshold_crossing_on_third_spike(self):
        net = _one_neuron([0.4, 0.4, 0.4], 1.0)
        for policy in ONE_NEURON_POLICIES:
            assert _fire_time(net, [0.1, 0.2, 0.3], policy) == 0.3
            # the inputs are summed in time order, not in site order
            assert _fire_time(net, [0.3, 0.1, 0.2], policy) == 0.3

    def test_below_threshold_accumulates(self):
        times = [0.1, 0.2, 0.3, 0.4]
        for policy in ONE_NEURON_POLICIES:
            assert _fire_time(_one_neuron([1.0] * 4, 5.0), times, policy) == INF
            # the same inputs reach a threshold of exactly their sum
            assert _fire_time(_one_neuron([1.0] * 4, 4.0), times, policy) == 0.4

    def test_refractory_ignores_input(self):
        net = _one_neuron([2.0, 5.0], 1.0)
        for policy in ONE_NEURON_POLICIES:
            out = forward_times(net, np.array([[[0.1, 0.2]]]), policy)[0]
            assert out.tolist() == [[[0.1]]]  # one spike, at the first crossing


class TestResetSample:
    def test_reset_zeroes_potential_and_flags(self):
        net = _one_neuron([0.7, 0.7], 1.0)
        before = net.thresholds[0].copy()
        for policy in ONE_NEURON_POLICIES:
            for _ in range(2):
                # a 0.7 left over from the sample before would make each fire
                assert _fire_time(net, [0.1, INF], policy) == INF
                assert _fire_time(net, [INF, 0.5], policy) == INF
                # a fire in one sample does not silence the next
                assert _fire_time(net, [0.1, 0.5], policy) == 0.5
        assert np.array_equal(net.thresholds[0], before)  # thresholds untouched


class TestPoolForward:
    def _pool(self, times, f=2, stride=2, size=4):
        spec = NetworkSpec(Shape3(1, size, size), [LayerSpec("pool", f, f, 1, stride, 0)])
        grid = np.full((1, size, size), INF)
        for (y, x), t in times.items():
            grid[0, y, x] = t
        return forward_layer(Network(spec), 0, grid)[0]

    def test_first_spike_passes_through(self):
        out = self._pool({(0, 1): 0.4})
        assert out[0, 0] == 0.4
        assert np.isinf(out).sum() == 3

    def test_second_spike_same_field_absorbed(self):
        out = self._pool({(0, 1): 0.4, (1, 0): 0.6})
        assert out[0, 0] == 0.4
        assert np.isinf(out).sum() == 3
        # the earliest input wins whatever its site
        assert self._pool({(0, 1): 0.6, (1, 0): 0.4})[0, 0] == 0.4

    def test_disjoint_fields_independent(self):
        out = self._pool({(0, 0): 0.4, (3, 3): 0.5})
        assert out[0, 0] == 0.4 and out[1, 1] == 0.5
        assert np.isinf(out[0, 1]) and np.isinf(out[1, 0])

    def test_overlapping_pooling_fans_out(self):
        out = self._pool({(2, 2): 0.2}, f=3, stride=1, size=5)
        assert out.shape == (3, 3)
        assert np.all(out == 0.2)  # all 3x3 windows containing the center


class TestRunSample:
    """One sample through ``forward_times``."""

    def _net(self):
        spec = NetworkSpec(Shape3(1, 3, 3), [LayerSpec("conv", 3, 3, 2, 1, 0)])
        net = Network(spec)
        net.weights[0] = np.full((2, 1, 3, 3), 0.5)
        net.thresholds[0] = np.array([1.0, 1.0])
        return net

    def test_empty_input_empty_output(self):
        outs = forward_times(self._net(), np.full((1, 3, 3), INF))
        assert len(outs) == 1 and outs[0].shape == (2, 1, 1)
        assert np.all(outs[0] == INF)

    def test_wta_single_winner_map_tiebreak(self):
        # both maps cross on the same event; lowest map index wins
        net = self._net()
        grid = np.full((1, 3, 3), INF)
        grid[0, 0, 0], grid[0, 1, 1] = 0.1, 0.3
        outs = forward_times(net, grid, InhibitionPolicy("wta"))
        assert outs[0].ravel().tolist() == [0.3, INF]
        # without inhibition both fire
        assert forward_times(net, grid)[0].ravel().tolist() == [0.3, 0.3]

    def test_soft_inhibition_delays_competitor(self):
        # map 0 fires first and knocks map 1 back below threshold
        spec = NetworkSpec(Shape3(1, 2, 1), [LayerSpec("conv", 2, 1, 2, 1, 0)])
        net = Network(spec)
        net.weights[0] = np.array([[[[1.0], [1.0]]], [[[0.6], [0.6]]]])
        net.thresholds[0] = np.array([1.0, 1.0])
        grid = np.array([[[0.2], [0.5]]])
        no_inh = forward_times(net, grid)[0]
        assert no_inh.ravel().tolist() == [0.2, 0.5]
        soft = forward_times(net, grid, InhibitionPolicy("soft", v_inh=0.5))[0]
        # map 1 had 0.6 at t=0.2, inhibited to 0.1, reaches only 0.7 by 0.5
        assert soft.ravel().tolist() == [0.2, INF]
        weak = forward_times(net, grid, InhibitionPolicy("soft", v_inh=0.1))[0]
        assert weak.ravel().tolist() == [0.2, 0.5]


class TestProperties:
    def test_causality_and_single_fire(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            net = random_network(rng)
            grid = random_grid(rng, net.spec.input_shape, int(rng.integers(5, 25)))
            if not np.isfinite(grid).any():
                continue
            t0 = grid.min()
            policy = InhibitionPolicy(str(rng.choice(["none", "soft", "wta"])))
            for out in forward_times(net, grid, policy):
                # no spike before the first input; a grid holds one per site
                assert np.all(out[np.isfinite(out)] >= t0)

    def test_wta_one_spike_per_scope(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            net = random_network(rng)
            grid = random_grid(rng, net.spec.input_shape, 20)
            outs = forward_times(net, grid, InhibitionPolicy("wta"))
            for li, out in enumerate(outs):
                if net.spec.layers[li].kind == "pool":
                    continue
                assert np.all(np.isfinite(out).sum(axis=0) <= 1)

    def test_forward_deterministic(self):
        rng = np.random.default_rng(45)
        net = random_network(rng)
        grid = random_grid(rng, net.spec.input_shape, 15)
        a = forward_times(net, grid, InhibitionPolicy("soft"))
        b = forward_times(net, grid, InhibitionPolicy("soft"))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_output_layer_policy_leaves_lower_layers_free(self):
        rng = np.random.default_rng(46)
        for _ in range(8):
            net = random_network(rng)
            if len(net.spec.layers) < 2:
                continue
            grid = random_grid(rng, net.spec.input_shape, 20)
            free = forward_times(net, grid)
            gated = forward_times(net, grid, InhibitionPolicy("wta", layers="output"))
            # cascade below the readout untouched
            assert all(np.array_equal(f, g) for f, g in zip(free[:-1], gated[:-1]))
            # the readout layer keeps at most one spike per scope
            if net.spec.layers[-1].kind != "pool":
                assert np.all(np.isfinite(gated[-1]).sum(axis=0) <= 1)


def _compare_with_oracle(net, grid, policy):
    got = forward_times(net, grid, policy)
    want = DenseSimulator(net, policy).simulate(grid)
    for li, (g, w) in enumerate(zip(got, want)):
        fired = np.isfinite(w)
        assert np.array_equal(np.isfinite(g), fired), f"layer {li} sites differ"
        assert np.all(np.abs(g[fired] - w[fired]) < 1e-6), f"layer {li} times differ"


@st.composite
def _oracle_cases(draw):
    """A ``random_network`` of drawn shape, a tie-heavy input grid, a policy."""
    net = drawn_network(lambda lo, hi: draw(st.integers(lo, hi - 1)),
                        lambda options: draw(st.sampled_from(options)),
                        np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).uniform)
    shape = net.spec.input_shape
    n = draw(st.integers(1, shape.size))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    grid = random_grid(rng, shape, n, tie_heavy=True)
    return net, grid, draw(st.sampled_from(SWEEP_POLICIES))


class TestOracleEquivalence:
    def test_small_randomized_sweep(self):
        rng = np.random.default_rng(1234)
        for trial in range(30):
            net = random_network(rng)
            n = int(rng.integers(5, net.spec.input_shape.size + 1))
            grid = random_grid(rng, net.spec.input_shape, n,
                               tie_heavy=bool(trial % 3 == 0))
            for policy in SWEEP_POLICIES:
                _compare_with_oracle(net, grid, policy)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_oracle_cases())
    def test_drawn_networks_match_dense_simulator(self, case):
        _compare_with_oracle(*case)

    def test_signed_weights_crossing_engine(self):
        # signed weights skip the crossing engine's bound pre-filter, so the
        # block scan alone decides every fire; under soft inhibition the
        # floor at 0 can raise a negative potential
        rng = np.random.default_rng(4321)
        policies = [
            InhibitionPolicy("none"),
            InhibitionPolicy("soft", v_inh=0.0),
            InhibitionPolicy("wta"),
            InhibitionPolicy("none", layers="output"),
            InhibitionPolicy("soft", v_inh=0.0, layers="output"),
            InhibitionPolicy("wta", layers="output"),
            InhibitionPolicy("soft", v_inh=0.1),
            InhibitionPolicy("soft", v_inh=0.6),
            InhibitionPolicy("soft", v_inh=4.0),
            InhibitionPolicy("soft", v_inh=0.6, layers="output"),
        ]
        for trial in range(30):
            net = random_network(rng, w_low=-0.5)
            n = int(rng.integers(5, net.spec.input_shape.size + 1))
            grid = random_grid(rng, net.spec.input_shape, n,
                               tie_heavy=bool(trial % 3 == 0))
            for policy in policies:
                _compare_with_oracle(net, grid, policy)

    def test_derived_three_layer_case(self):
        rng = np.random.default_rng(77)
        spec = NetworkSpec(Shape3(2, 6, 6), [
            LayerSpec("conv", 3, 3, 4, 1, 0),
            LayerSpec("pool", 2, 2, 4, 2, 0),
            LayerSpec("fc", 2, 2, 8, 1, 0),
        ])
        net = Network(spec)
        for i in (0, 2):
            net.weights[i] = rng.uniform(0, 1, spec.weight_shape(i))
            net.thresholds[i] = rng.uniform(0.5, 2.5, spec.layers[i].maps)
        grid = random_grid(rng, spec.input_shape, 20)
        for policy in (NO_INHIBITION, InhibitionPolicy("soft"), InhibitionPolicy("wta")):
            _compare_with_oracle(net, grid, policy)


@st.composite
def _column_cases(draw):
    """A conv layer of several positions, a tie-heavy grid and a column policy.

    Weights are signed or non-negative; thresholds are low enough that a
    column fires several times. The policy is column WTA or soft inhibition
    whose ``v_inh`` runs from a nudge that rarely stops a competitor to a
    blow that floors the whole column at 0.
    """
    d_in, maps = draw(st.integers(1, 3)), draw(st.integers(2, 6))
    fh, fw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    stride, pad = draw(st.integers(1, 2)), draw(st.integers(0, 1))
    # at least two output rows: more than one position
    h = fh + draw(st.integers(stride if pad == 0 else 0, stride + 3))
    w = fw + draw(st.integers(0, 3))
    signed = draw(st.booleans())
    v_inh = draw(st.one_of(st.sampled_from([0.05, 0.5, 1.0, 5.0]), st.floats(0.001, 10.0)))
    policy = draw(st.sampled_from([InhibitionPolicy("soft", v_inh=v_inh), InhibitionPolicy("wta")]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    spec = NetworkSpec(Shape3(d_in, h, w), [LayerSpec("conv", fh, fw, maps, stride, pad)])
    net = Network(spec)
    net.weights[0] = rng.uniform(-0.6 if signed else 0.0, 1.0, spec.weight_shape(0))
    net.thresholds[0] = rng.uniform(0.1, 0.3 * d_in * fh * fw + 0.2, maps)
    n = draw(st.integers(1, spec.input_shape.size))
    grid = random_grid(rng, spec.input_shape, n, tie_heavy=True)
    return net, grid, policy


class TestSoftColumnRounds:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_column_cases())
    def test_rounds_match_dense_simulator(self, case):
        net, grid, policy = case
        assert net.spec.shapes[1].height * net.spec.shapes[1].width > 1
        _compare_with_oracle(net, grid, policy)

    def test_route_follows_policy_and_layer_shape(self, monkeypatch):
        import spikeconv.simulate as sim

        calls = []
        for name in ("_column_times", "_event_times"):
            real = getattr(sim, name)
            monkeypatch.setattr(sim, name, lambda *a, _f=real, _n=name: calls.append(_n) or _f(*a))
        conv = _one_layer(np.zeros((1, 3, 3)), np.ones((2, 1, 2, 2)), np.ones(2))
        fc = _one_layer(np.zeros((1, 3, 3)), np.ones((2, 1, 3, 3)), np.ones(2), kind="fc")
        soft = InhibitionPolicy("soft", v_inh=0.5)
        cases = [
            (conv, soft, "_column_times"),
            # one position: its column is the whole layer
            (fc, soft, "_event_times"),
            (conv, InhibitionPolicy("soft", v_inh=0.5, scope="layer"), "_event_times"),
            (conv, InhibitionPolicy("wta", scope="layer"), "_event_times"),
            (conv, InhibitionPolicy("soft", v_inh=0.0), "_column_times"),
            (conv, InhibitionPolicy("wta"), "_column_times"),
            (fc, InhibitionPolicy("wta"), "_event_times"),
            (fc, NO_INHIBITION, "_column_times"),
        ]
        for net, policy, route in cases:
            calls.clear()
            forward_layer(net, 0, np.zeros((1, 3, 3)), policy)
            assert calls == [route], (net.spec.layers[0], policy)

    def test_floor_recheck_and_restart_by_hand(self):
        # a 1x4 filter over five inputs 0.1 apart: two positions, the second
        # seeing every input 0.1 later. At the first position map 0 and map 3
        # cross on input 0.1; map 0 fires and floors the column at 0, so the
        # recheck stops map 3, which fires on the next input alone and
        # floors the rest again. Map 1 climbs back and fires on the fourth
        # input; map 2, which would fire there without inhibition, never
        # climbs back high enough.
        per_tap = np.array([1.0, 0.6, 0.3, 1.2])
        weights = np.repeat(per_tap, 4).reshape(4, 1, 1, 4)
        times = np.array([[[0.1, 0.2, 0.3, 0.4, 0.5]]])
        net = _one_layer(times, weights, np.array([1.0, 1.1, 1.0, 1.0]))
        got = forward_layer(net, 0, times, InhibitionPolicy("soft", v_inh=5.0))
        assert got[:, 0, :].tolist() == [[0.1, 0.2], [0.4, 0.5], [INF, INF], [0.2, 0.3]]
        free = forward_layer(net, 0, times)
        assert free[:, 0, :].tolist() == [[0.1, 0.2], [0.2, 0.3], [0.4, 0.5], [0.1, 0.2]]


class TestColumnResponse:
    def test_winner_is_earliest_crossing(self):
        patch = np.full((1, 2, 2), np.inf)
        patch[0, 0, 0] = 0.1
        patch[0, 1, 1] = 0.4
        weights = np.array([[[[0.5, 0.0], [0.0, 0.6]]],
                            [[[1.0, 0.0], [0.0, 0.0]]]])
        # map 1 crosses on the first spike, map 0 needs both
        res = column_response(patch, weights, np.array([1.0, 1.0]))
        assert res.winner == 1
        assert res.fire_time == pytest.approx(0.1)

    def test_silent_patch_has_no_winner(self):
        patch = np.full((1, 2, 2), np.inf)
        res = column_response(patch, np.ones((3, 1, 2, 2)), np.ones(3))
        assert res.winner is None and res.fire_time is None

    def test_map_tiebreak(self):
        patch = np.zeros((1, 1, 1))
        res = column_response(patch, np.ones((4, 1, 1, 1)), np.ones(4))
        assert res.winner == 0


def _one_layer(times, weights, thresholds, kind="conv"):
    d_in, h, w = times.shape
    _, _, fh, fw = weights.shape
    net = Network(NetworkSpec(Shape3(d_in, h, w),
                              [LayerSpec(kind, fh, fw, weights.shape[0], 1, 0)]))
    net.weights[0] = weights
    net.thresholds[0] = thresholds
    return net


def _cumsum_reference(times, weights, thresholds, wta):
    """First crossings from one np.cumsum per neuron over its sorted window."""
    d_out, _, fh, fw = weights.shape
    _, h, w = times.shape
    out = np.full((d_out, h - fh + 1, w - fw + 1), np.inf)
    for y in range(h - fh + 1):
        for x in range(w - fw + 1):
            win = times[:, y:y + fh, x:x + fw].ravel()
            slots = np.nonzero(np.isfinite(win))[0]
            slots = slots[np.argsort(win[slots], kind="stable")]
            first = [np.nonzero(np.cumsum(weights[d].ravel()[slots]) >= thresholds[d])[0]
                     for d in range(d_out)]
            crossings = [(k[0], d) for d, k in enumerate(first) if k.size]
            if wta and crossings:
                crossings = [min(crossings)]  # earliest input, then lowest map
            for k, d in crossings:
                out[d, y, x] = win[slots[k]]
    return out


@st.composite
def _scan_cases(draw):
    d_in = draw(st.integers(1, 4))
    fh, fw = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    h, w = fh + draw(st.integers(0, 2)), fw + draw(st.integers(0, 2))
    maps = draw(st.integers(1, 6))
    signed = draw(st.booleans())
    silent = draw(st.floats(0.0, 0.9))
    levels = draw(st.integers(1, 64))  # few time levels: many ties
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    times = np.where(rng.random((d_in, h, w)) < silent, np.inf,
                     rng.integers(0, levels, (d_in, h, w)) / levels)
    weights = rng.uniform(-0.5 if signed else 0.0, 1.0, (maps, d_in, fh, fw))
    thresholds = rng.uniform(0.1, 0.3 * d_in * fh * fw + 0.1, maps)
    # thresholds equal to an exact sequential partial sum (often the whole
    # window's) of one window: the pre-filter's margin must keep them
    for d in range(maps):
        if rng.random() < 0.6:
            y, x = int(rng.integers(h - fh + 1)), int(rng.integers(w - fw + 1))
            win = times[:, y:y + fh, x:x + fw].ravel()
            slots = np.nonzero(np.isfinite(win))[0]
            if slots.size:
                slots = slots[np.argsort(win[slots], kind="stable")]
                sums = np.cumsum(weights[d].ravel()[slots])
                k = slots.size - 1 if rng.random() < 0.5 else int(rng.integers(slots.size))
                thresholds[d] = sums[k]
    return times, weights, thresholds


class TestCrossingScan:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_scan_cases())
    def test_block_scan_matches_one_cumsum(self, case):
        times, weights, thresholds = case
        net = _one_layer(times, weights, thresholds)
        for policy, wta in ((NO_INHIBITION, False), (InhibitionPolicy("wta"), True)):
            got = forward_layer(net, 0, times, policy)
            want = _cumsum_reference(times, weights, thresholds, wta)
            assert np.array_equal(got, want)

    def test_threshold_at_exact_sequential_sum_fires(self):
        # in time order (slot 2, 1, 0) the running sum rounds up twice and
        # lands exactly on the threshold; summed in window order it rounds
        # to one ulp less, so a bound without its margin would drop the neuron
        small = 2.0 ** -53 + 2.0 ** -60
        w = np.array([small, small, 1.0])
        th = 1.0 + 2.0 ** -51
        assert np.cumsum(w[::-1])[-1] == th
        assert np.sum(w) < th
        weights = np.stack([w, w]).reshape(2, 1, 1, 3)
        thresholds = np.array([th, np.nextafter(th, np.inf)])
        times = np.array([[[0.3, 0.2, 0.1]]])
        net = _one_layer(times, weights, thresholds, kind="fc")
        for policy in (NO_INHIBITION, InhibitionPolicy("wta")):
            out = forward_layer(net, 0, times, policy)
            assert out[:, 0, 0].tolist() == [0.3, np.inf]
        res = column_response(times, weights, thresholds)
        assert (res.winner, res.fire_time) == (0, 0.3)

    def test_non_finite_input_times_are_silent_in_every_engine(self):
        weights, thresholds = np.ones((1, 1, 1, 3)), np.array([2.0])
        for bad in (-np.inf, np.nan):
            times = np.array([[[bad, 0.2, 0.5]]])
            net = _one_layer(times, weights, thresholds, kind="fc")
            for policy in (NO_INHIBITION, InhibitionPolicy("wta"), InhibitionPolicy("soft")):
                assert forward_layer(net, 0, times, policy).ravel().tolist() == [0.5]
            res = column_response(times, weights, thresholds)
            assert (res.winner, res.fire_time) == (0, 0.5)

    def test_column_response_matches_forward_layer(self):
        rng = np.random.default_rng(99)
        seen = set()
        for trial in range(200):
            d_in, fh, fw = (int(v) for v in rng.integers(1, 5, 3))
            maps = int(rng.integers(2, 7))
            times = np.where(rng.random((d_in, fh, fw)) < 0.4, np.inf,
                             rng.integers(0, 6, (d_in, fh, fw)) / 8)
            weights = rng.uniform(-0.4 if trial % 2 else 0.0, 1.0,
                                  (maps, d_in, fh, fw))
            thresholds = rng.uniform(0.2, 0.4 * d_in * fh * fw + 0.2, maps)
            if trial % 3 == 0:  # two maps cross on the same input
                weights[maps - 1] = weights[0]
                thresholds[maps - 1] = thresholds[0]
            net = _one_layer(times, weights, thresholds, kind="fc")
            out = forward_layer(net, 0, times, InhibitionPolicy("wta"))[:, 0, 0]
            res = column_response(times, weights, thresholds)
            fired = np.nonzero(np.isfinite(out))[0].tolist()
            if res.winner is None:
                assert fired == [] and res.fire_time is None
                seen.add("no winner")
            else:
                assert fired == [res.winner] and out[res.winner] == res.fire_time
                free = forward_layer(net, 0, times)[:, 0, 0]
                if trial % 3 == 0 and free[0] == free[maps - 1] < np.inf:
                    seen.add("tie")
                    assert res.winner != maps - 1
                else:
                    seen.add("winner")
        assert seen == {"no winner", "winner", "tie"}


class TestForwardValidation:
    def test_shape_mismatch_rejected(self):
        net = Network(NetworkSpec(Shape3(2, 4, 4), [LayerSpec("conv", 2, 2, 2, 1, 0)]))
        net.weights[0] = np.ones((2, 2, 2, 2))
        net.thresholds[0] = np.ones(2)
        with pytest.raises(ValueError, match="input grid"):
            forward_times(net, np.full((2, 5, 5), np.inf))

    def test_rejects_non_finite(self):
        # +inf marks a silent site; NaN and -inf are no spike time at all
        net = Network(NetworkSpec(Shape3(2, 4, 4), [LayerSpec("conv", 2, 2, 2, 1, 0)]))
        net.weights[0] = np.ones((2, 2, 2, 2))
        net.thresholds[0] = np.ones(2)
        for bad, name in ((np.nan, "NaN"), (-np.inf, "-inf")):
            grid = np.full((2, 4, 4), np.inf)
            grid[1, 2, 3] = bad
            with pytest.raises(ValueError, match=name):
                forward_times(net, grid)
        # the same grid with the site silent runs
        assert forward_times(net, np.full((2, 4, 4), np.inf))[0].shape == (2, 3, 3)

    def test_unready_network_rejected(self):
        net = Network(NetworkSpec(Shape3(2, 4, 4), [LayerSpec("conv", 2, 2, 2, 1, 0)]))
        with pytest.raises(ValueError, match="uninitialized"):
            forward_times(net, np.full((2, 4, 4), np.inf))
        with pytest.raises(ValueError, match="uninitialized"):
            forward_layer(net, 0, np.full((2, 4, 4), np.inf))

