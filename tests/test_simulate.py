import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spikeconv import (
    InhibitionPolicy,
    LayerSpec,
    Network,
    NetworkSpec,
    NeuronState,
    NO_INHIBITION,
    Shape3,
    SpikeEvent,
    column_response,
    integrate,
    pool_forward,
    reset_sample,
    run_sample,
)
from spikeconv.simulate import PoolState, forward_layer, forward_times

from oracles import DenseSimulator
from util import random_events, random_network


class TestIntegrate:
    def test_threshold_crossing_on_third_spike(self):
        s = NeuronState(threshold=1.0)
        times = [0.1, 0.2, 0.3]
        fires = [integrate(s, 0.4, t) for t in times]
        assert fires == [None, None, 0.3]
        assert s.potential == 0.0 and s.fired

    def test_below_threshold_accumulates(self):
        s = NeuronState(threshold=5.0)
        for t in (0.1, 0.2, 0.3, 0.4):
            assert integrate(s, 1.0, t) is None
        assert s.potential == pytest.approx(4.0)
        assert not s.fired

    def test_refractory_ignores_input(self):
        s = NeuronState(threshold=1.0)
        integrate(s, 2.0, 0.1)
        before = (s.potential, s.threshold, s.fired)
        assert integrate(s, 5.0, 0.2) is None
        assert (s.potential, s.threshold, s.fired) == before


class TestResetSample:
    def test_reset_zeroes_potential_and_flags(self):
        states = [NeuronState(potential=0.7, threshold=2.0, fired=True),
                  NeuronState(potential=0.2, threshold=3.5)]
        reset_sample(states)
        assert all(s.potential == 0.0 for s in states)
        assert all(not s.fired for s in states)
        # thresholds untouched
        assert [s.threshold for s in states] == [2.0, 3.5]


class TestPoolForward:
    def _state(self):
        layer = LayerSpec("pool", 2, 2, 1, 2, 0)
        return PoolState(layer, Shape3(1, 4, 4))

    def test_first_spike_passes_through(self):
        st = self._state()
        out = pool_forward(SpikeEvent(0.4, 0, 0, 0, 1), st)
        assert [(e.time, e.map, e.y, e.x) for e in out] == [(0.4, 0, 0, 0)]

    def test_second_spike_same_field_absorbed(self):
        st = self._state()
        pool_forward(SpikeEvent(0.4, 0, 0, 0, 1), st)
        assert pool_forward(SpikeEvent(0.6, 0, 0, 1, 0), st) == []

    def test_disjoint_fields_independent(self):
        st = self._state()
        a = pool_forward(SpikeEvent(0.4, 0, 0, 0, 0), st)
        b = pool_forward(SpikeEvent(0.5, 0, 0, 3, 3), st)
        assert len(a) == len(b) == 1
        assert (a[0].y, a[0].x) == (0, 0)
        assert (b[0].y, b[0].x) == (1, 1)

    def test_overlapping_pooling_fans_out(self):
        layer = LayerSpec("pool", 3, 3, 1, 1, 0)
        st = PoolState(layer, Shape3(1, 5, 5))
        out = pool_forward(SpikeEvent(0.2, 0, 0, 2, 2), st)
        assert len(out) == 9  # all 3x3 windows containing the center


class TestRunSample:
    def _net(self):
        spec = NetworkSpec(Shape3(1, 3, 3), [LayerSpec("conv", 3, 3, 2, 1, 0)])
        net = Network(spec)
        net.weights[0] = np.full((2, 1, 3, 3), 0.5)
        net.thresholds[0] = np.array([1.0, 1.0])
        return net

    def test_empty_input_empty_output(self):
        outs = run_sample(self._net(), [])
        assert outs == [[]]

    def test_wta_single_winner_map_tiebreak(self):
        # both maps cross on the same event; lowest map index wins
        net = self._net()
        events = [SpikeEvent(0.1, 0, 0, 0, 0), SpikeEvent(0.3, 0, 0, 1, 1)]
        outs = run_sample(net, events, InhibitionPolicy("wta"))
        assert len(outs[0]) == 1
        e = outs[0][0]
        assert (e.time, e.map) == (0.3, 0)
        # without inhibition both fire
        outs2 = run_sample(net, events)
        assert [(e.map, e.time) for e in outs2[0]] == [(0, 0.3), (1, 0.3)]

    def test_rejects_out_of_range_site(self):
        with pytest.raises(ValueError, match="outside"):
            run_sample(self._net(), [SpikeEvent(0.1, 0, 0, 5, 0)])

    def test_rejects_wrong_layer_and_duplicates(self):
        with pytest.raises(ValueError, match="layer"):
            run_sample(self._net(), [SpikeEvent(0.1, 1, 0, 0, 0)])
        ev = SpikeEvent(0.1, 0, 0, 0, 0)
        with pytest.raises(ValueError, match="duplicate"):
            run_sample(self._net(), [ev, SpikeEvent(0.2, 0, 0, 0, 0)])

    def test_soft_inhibition_delays_competitor(self):
        # map 0 fires first and knocks map 1 back below threshold
        spec = NetworkSpec(Shape3(1, 2, 1), [LayerSpec("conv", 2, 1, 2, 1, 0)])
        net = Network(spec)
        net.weights[0] = np.array([[[[1.0], [1.0]]], [[[0.6], [0.6]]]])
        net.thresholds[0] = np.array([1.0, 1.0])
        events = [SpikeEvent(0.2, 0, 0, 0, 0), SpikeEvent(0.5, 0, 0, 1, 0)]
        no_inh = run_sample(net, events)[0]
        assert [(e.map, e.time) for e in no_inh] == [(0, 0.2), (1, 0.5)]
        soft = run_sample(net, events, InhibitionPolicy("soft", v_inh=0.5))[0]
        # map 1 had 0.6 at t=0.2, inhibited to 0.1, reaches only 0.7 by 0.5
        assert [(e.map, e.time) for e in soft] == [(0, 0.2)]
        weak = run_sample(net, events, InhibitionPolicy("soft", v_inh=0.1))[0]
        assert [(e.map, e.time) for e in weak] == [(0, 0.2), (1, 0.5)]


class TestProperties:
    def test_causality_and_single_fire(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            net = random_network(rng)
            events = random_events(rng, net.spec.input_shape, int(rng.integers(5, 25)))
            if not events:
                continue
            t0 = min(e.time for e in events)
            policy = InhibitionPolicy(str(rng.choice(["none", "soft", "wta"])))
            outs = run_sample(net, events, policy)
            for layer_events in outs:
                sites = [(e.map, e.y, e.x) for e in layer_events]
                assert len(sites) == len(set(sites))  # at most one spike
                times = [e.time for e in layer_events]
                assert times == sorted(times)
                assert all(t >= t0 for t in times)

    def test_equal_time_permutation_invariance_without_inhibition(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            net = random_network(rng)
            events = random_events(rng, net.spec.input_shape, 20, tie_heavy=True)
            if not events:
                continue
            ref = run_sample(net, events)
            shuffled = [events[i] for i in rng.permutation(len(events))]
            assert run_sample(net, shuffled) == ref

    def test_wta_one_spike_per_scope(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            net = random_network(rng)
            events = random_events(rng, net.spec.input_shape, 20)
            outs = run_sample(net, events, InhibitionPolicy("wta"))
            for li, layer_events in enumerate(outs):
                if net.spec.layers[li].kind == "pool":
                    continue
                scopes = [(e.y, e.x) for e in layer_events]
                assert len(scopes) == len(set(scopes))

    def test_forward_deterministic(self):
        rng = np.random.default_rng(45)
        net = random_network(rng)
        events = random_events(rng, net.spec.input_shape, 15)
        a = run_sample(net, events, InhibitionPolicy("soft"))
        b = run_sample(net, events, InhibitionPolicy("soft"))
        assert a == b

    def test_output_layer_policy_leaves_lower_layers_free(self):
        rng = np.random.default_rng(46)
        for _ in range(8):
            net = random_network(rng)
            if len(net.spec.layers) < 2:
                continue
            events = random_events(rng, net.spec.input_shape, 20)
            free = run_sample(net, events)
            gated = run_sample(net, events, InhibitionPolicy("wta", layers="output"))
            assert gated[:-1] == free[:-1]  # cascade below the readout untouched
            # the readout layer keeps at most one spike per scope
            last_kind = net.spec.layers[-1].kind
            if last_kind != "pool":
                scopes = [(e.y, e.x) for e in gated[-1]]
                assert len(scopes) == len(set(scopes))


def _compare_with_oracle(net, events, policy):
    got = run_sample(net, events, policy)
    want = DenseSimulator(net, policy).simulate(events)
    for li, (g, w) in enumerate(zip(got, want)):
        got_sites = {(e.map, e.y, e.x): e.time for e in g}
        want_sites = {(m, y, x): t for (t, m, y, x) in w}
        assert got_sites.keys() == want_sites.keys(), f"layer {li} sites differ"
        for site, t in want_sites.items():
            assert abs(got_sites[site] - t) < 1e-6, f"layer {li} time differs at {site}"


class TestOracleEquivalence:
    def test_small_randomized_sweep(self):
        # every policy on every network, so both engines (crossing: none,
        # soft with v_inh=0, column WTA; event: soft, layer WTA) meet the
        # same strides, paddings, time ties and one-position fc layers
        rng = np.random.default_rng(1234)
        policies = [
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
        for trial in range(30):
            net = random_network(rng)
            n = int(rng.integers(5, net.spec.input_shape.size + 1))
            events = random_events(rng, net.spec.input_shape, n,
                                   tie_heavy=bool(trial % 3 == 0))
            for policy in policies:
                _compare_with_oracle(net, events, policy)

    def test_signed_weights_crossing_engine(self):
        # signed weights skip the crossing engine's bound pre-filter, so the
        # block scan alone decides every fire
        rng = np.random.default_rng(4321)
        policies = [
            InhibitionPolicy("none"),
            InhibitionPolicy("soft", v_inh=0.0),
            InhibitionPolicy("wta"),
            InhibitionPolicy("none", layers="output"),
            InhibitionPolicy("soft", v_inh=0.0, layers="output"),
            InhibitionPolicy("wta", layers="output"),
        ]
        for trial in range(30):
            net = random_network(rng, w_low=-0.5)
            n = int(rng.integers(5, net.spec.input_shape.size + 1))
            events = random_events(rng, net.spec.input_shape, n,
                                   tie_heavy=bool(trial % 3 == 0))
            for policy in policies:
                _compare_with_oracle(net, events, policy)

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
        events = random_events(rng, spec.input_shape, 20)
        for policy in (NO_INHIBITION, InhibitionPolicy("soft"), InhibitionPolicy("wta")):
            _compare_with_oracle(net, events, policy)


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

    def test_unready_network_rejected(self):
        net = Network(NetworkSpec(Shape3(2, 4, 4), [LayerSpec("conv", 2, 2, 2, 1, 0)]))
        with pytest.raises(ValueError, match="uninitialized"):
            forward_times(net, np.full((2, 4, 4), np.inf))
        with pytest.raises(ValueError, match="uninitialized"):
            forward_layer(net, 0, np.full((2, 4, 4), np.inf))

