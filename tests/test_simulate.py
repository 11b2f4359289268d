import argparse
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spikeconv import (
    InhibitionPolicy,
    LayerSpec,
    Network,
    NetworkSpec,
    NO_INHIBITION,
    RngStreams,
    Shape3,
    TrainConfig,
    column_response,
)
import spikeconv.simulate as sim
from spikeconv.cli import cmd_export_filters
from spikeconv.modelio import network_bytes, network_from_bytes, save_network
from spikeconv.readout import extract_features, reconstruct_filter
from spikeconv.simulate import forward_layer, forward_times
from spikeconv.training import sample_patch, train_layer

from oracles import DenseSimulator, column_reference
from util import drawn_network, random_grid, random_network

INF = np.inf
# a lone neuron has no competitor, so each policy gives the same output: no
# inhibition runs the crossing scan, soft inhibition the lockstep and
# layer-scope WTA the event engine
ONE_NEURON_POLICIES = [NO_INHIBITION, InhibitionPolicy("soft", v_inh=0.5),
                       InhibitionPolicy("wta", scope="layer")]
# every policy, so both routes (crossing engine: none, soft with v_inh=0,
# column WTA in a layer of several positions and column soft in any layer;
# event engine: layer scope, and WTA in a one-position fc layer) meet the same
# strides, paddings, time ties and one-position fc layers
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
    """One IF neuron at one position over a (1, 1, n) input row, under
    bounds that hold its weights."""
    n = len(weights)
    spec = NetworkSpec(Shape3(1, 1, n), [LayerSpec("fc", 1, n, 1, 1, 0)])
    net = Network(spec, min(0.0, *weights), max(1.0, *weights))
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
def _column_policy_cases(draw):
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
    net = Network(spec, -0.6 if signed else 0.0)
    net.weights[0] = rng.uniform(-0.6 if signed else 0.0, 1.0, spec.weight_shape(0))
    net.thresholds[0] = rng.uniform(0.1, 0.3 * d_in * fh * fw + 0.2, maps)
    n = draw(st.integers(1, spec.input_shape.size))
    grid = random_grid(rng, spec.input_shape, n, tie_heavy=True)
    return net, grid, policy


def _pin_thresholds(draw, net, grids, policy):
    """Give up to three maps as threshold a potential one of their columns
    reaches under the policy on one of ``grids``, or the next float above it,
    so a fire there turns on the rounding of every float addition and floor
    before it."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    for _ in range(draw(st.integers(0, 3))):
        trace = []
        column_reference(net, 0, grids[int(rng.integers(len(grids)))], policy, trace)
        reached = [(d, v) for d, v in trace if v > 0.0]  # thresholds are positive
        if reached:
            d, v = reached[int(rng.integers(len(reached)))]
            thresholds = net.thresholds[0].copy()
            thresholds[d] = np.nextafter(v, np.inf) if draw(st.booleans()) else v
            net.thresholds[0] = thresholds


@st.composite
def _exact_column_cases(draw):
    """A ``_column_policy_cases`` case with thresholds pinned to reached
    potentials (``_pin_thresholds``)."""
    net, grid, policy = draw(_column_policy_cases())
    _pin_thresholds(draw, net, [grid], policy)
    return net, grid, policy


@st.composite
def _one_position_cases(draw, single=False):
    """A layer of one position, a stack of 2-5 tie-heavy grids and a column
    policy, with thresholds pinned to reached potentials.

    The layer is fc, or conv whose stride and padding leave one output
    position; weights, thresholds and policies are drawn as in
    ``_column_policy_cases``, so a column fires several times. With
    ``single``, one (D, H, W) grid under soft inhibition instead: the
    lockstep's one column, stepped on its own rows.
    """
    d_in, maps = draw(st.integers(1, 3)), draw(st.integers(2, 6))
    fh, fw = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    if draw(st.booleans()):
        stride = draw(st.integers(1, 3))
        pad = draw(st.integers(0, 1)) if min(fh, fw) >= 3 else 0
        # (h + 2 pad - fh) // stride == 0: the filter fits once down and across
        h = fh - 2 * pad + draw(st.integers(0, stride - 1))
        w = fw - 2 * pad + draw(st.integers(0, stride - 1))
        layer = LayerSpec("conv", fh, fw, maps, stride, pad)
    else:
        h, w = fh, fw
        layer = LayerSpec("fc", fh, fw, maps, 1, 0)
    signed = draw(st.booleans())
    v_inh = draw(st.one_of(st.sampled_from([0.05, 0.5, 1.0, 5.0]), st.floats(0.001, 10.0)))
    soft = InhibitionPolicy("soft", v_inh=v_inh)
    policy = soft if single else draw(st.sampled_from([soft, InhibitionPolicy("wta")]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    spec = NetworkSpec(Shape3(d_in, h, w), [layer])
    net = Network(spec, -0.6 if signed else 0.0)
    net.weights[0] = rng.uniform(-0.6 if signed else 0.0, 1.0, spec.weight_shape(0))
    window = d_in * fh * fw
    net.thresholds[0] = rng.uniform(0.1, 0.3 * window + 0.2, maps)
    least, most = (1, 1) if single else (2, 5)
    counts = draw(st.lists(st.integers(0, spec.input_shape.size), min_size=least, max_size=most))
    stack = np.stack([random_grid(rng, spec.input_shape, n, tie_heavy=True) for n in counts])
    _pin_thresholds(draw, net, stack, policy)
    return net, stack[0] if single else stack, policy


class TestColumnPolicies:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_column_policy_cases())
    def test_column_policies_match_dense_simulator(self, case):
        net, grid, policy = case
        assert net.spec.shapes[1].height * net.spec.shapes[1].width > 1
        _compare_with_oracle(net, grid, policy)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_exact_column_cases())
    def test_bitwise_the_column_reference(self, case):
        net, grid, policy = case
        for pol in (policy, NO_INHIBITION):
            want = column_reference(net, 0, grid, pol)
            assert np.array_equal(forward_layer(net, 0, grid, pol), want), pol

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_one_position_cases())
    def test_one_position_stack_bitwise_the_column_reference(self, case):
        net, stack, policy = case
        assert net.spec.shapes[1].height * net.spec.shapes[1].width == 1
        got = forward_layer(net, 0, stack, policy)
        for out, grid in zip(got, stack):
            assert np.array_equal(out, column_reference(net, 0, grid, policy)), policy

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_one_position_cases(single=True))
    def test_one_position_grid_bitwise_the_column_reference(self, case):
        net, grid, policy = case
        assert grid.ndim == 3 and policy.mode == "soft"
        got = forward_layer(net, 0, grid, policy)
        assert np.array_equal(got, column_reference(net, 0, grid, policy))

    def test_route_follows_policy_and_layer_shape(self, monkeypatch):
        import spikeconv.simulate as sim

        # each engine gets the policy resolved once: (wta, v_inh), v_inh 0.0
        # unless the mode is soft
        calls = []
        for name in ("_column_times", "_event_times"):
            real = getattr(sim, name)
            monkeypatch.setattr(sim, name, lambda s, w, th, plan, wta, v_inh, *a, _f=real, _n=name:
                                calls.append((_n, wta, v_inh))
                                or _f(s, w, th, plan, wta, v_inh, *a))
        conv = _one_layer(np.zeros((1, 3, 3)), np.ones((2, 1, 2, 2)), np.ones(2))
        fc = _one_layer(np.zeros((1, 3, 3)), np.ones((2, 1, 3, 3)), np.ones(2), kind="fc")
        conv1x1 = _one_layer(np.zeros((1, 3, 3)), np.ones((2, 1, 3, 3)), np.ones(2))
        soft = InhibitionPolicy("soft", v_inh=0.5)
        cases = [
            (conv, soft, "_column_times", False, 0.5),
            # one position: the lockstep steps one column per sample
            (fc, soft, "_column_times", False, 0.5),
            (conv1x1, soft, "_column_times", False, 0.5),
            (conv1x1, InhibitionPolicy("wta"), "_event_times", True, 0.0),
            (conv, InhibitionPolicy("soft", v_inh=0.5, scope="layer"), "_event_times", False, 0.5),
            (conv, InhibitionPolicy("wta", scope="layer"), "_event_times", True, 0.0),
            (conv, InhibitionPolicy("soft", v_inh=0.0), "_column_times", False, 0.0),
            # soft without a charge is no inhibition at any scope: the block scan
            (conv, InhibitionPolicy("soft", v_inh=0.0, scope="layer"), "_column_times", False, 0.0),
            (conv, InhibitionPolicy("wta"), "_column_times", True, 0.0),
            # winner-take-all reads no v_inh
            (conv, InhibitionPolicy("wta", v_inh=5.0), "_column_times", True, 0.0),
            (conv, InhibitionPolicy("wta", v_inh=5.0, scope="layer"), "_event_times", True, 0.0),
            (fc, InhibitionPolicy("wta"), "_event_times", True, 0.0),
            (fc, NO_INHIBITION, "_column_times", False, 0.0),
            (fc, InhibitionPolicy("none", v_inh=3.0, scope="layer"), "_column_times", False, 0.0),
        ]
        for net, policy, *route in cases:
            calls.clear()
            forward_layer(net, 0, np.zeros((1, 3, 3)), policy)
            assert calls == [tuple(route)], (net.spec.layers[0], policy)
        # layers="output" inhibits only the last layer; an inner layer runs free
        spec = NetworkSpec(Shape3(1, 4, 4), [LayerSpec("conv", 2, 2, 2, 1, 0),
                                             LayerSpec("conv", 2, 2, 2, 1, 0)])
        two = Network(spec)
        for i in (0, 1):
            two.install_column(i, np.ones(spec.weight_shape(i)), np.ones(2))
        for policy, last in [(InhibitionPolicy("wta", layers="output"), (True, 0.0)),
                             (InhibitionPolicy("soft", v_inh=0.5, layers="output"), (False, 0.5))]:
            calls.clear()
            forward_times(two, np.zeros((1, 4, 4)), policy)
            assert calls == [("_column_times", False, 0.0), ("_column_times", *last)], policy

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


def _soft_calls(monkeypatch):
    """Column counts of every lockstep scan ``forward_layer`` makes from now on."""
    calls = []
    real = sim._soft_columns
    monkeypatch.setattr(sim, "_soft_columns",
                        lambda order, *a: calls.append(order.shape[0]) or real(order, *a))
    return calls


class TestLockstep:
    def test_ragged_columns_in_one_chunk(self, monkeypatch):
        # a 1x3 filter over [0.1, silent, 0.2, 0.3, 0.4]: the first two
        # columns get two inputs and the third three. In each, map 0 fires
        # on its second input and floors map 1 by 0.3. The first two columns
        # fire there on their last input and run out; map 1 of the third
        # climbs back and fires on the third input, alone in the scan.
        times = np.array([[[0.1, INF, 0.2, 0.3, 0.4]]])
        weights = np.array([[0.5, 0.5, 0.5], [0.2, 0.2, 1.0]]).reshape(2, 1, 1, 3)
        net = _one_layer(times, weights, np.array([1.0, 1.0]))
        policy = InhibitionPolicy("soft", v_inh=0.3)
        calls = _soft_calls(monkeypatch)
        got = forward_layer(net, 0, times, policy)
        assert calls == [3]
        assert got[:, 0, :].tolist() == [[0.2, 0.3, 0.3], [INF, INF, 0.4]]
        assert np.array_equal(got, column_reference(net, 0, times, policy))
        free = forward_layer(net, 0, times)
        assert free[:, 0, :].tolist() == [[0.2, 0.3, 0.3], [0.2, 0.3, 0.4]]

    def test_lone_column_rechecks_at_the_same_input(self, monkeypatch):
        # fc over two inputs, 0.1 then 0.3: one column, which the lockstep
        # steps alone. All three maps cross on the first input. Map 0 fires
        # and lowers the rest by 0.3: map 1 keeps 1.2, still above its
        # threshold, so the recheck fires it on the same input, while map 2
        # drops to 0.9 and is stopped. The second input lifts map 2 from the
        # 0.6 map 1's fire left it to 1.1, where it fires.
        times = np.array([[[0.1, 0.3]]])
        weights = np.array([[1.0, 0.0], [1.5, 0.0], [1.2, 0.5]]).reshape(3, 1, 1, 2)
        net = _one_layer(times, weights, np.ones(3), kind="fc")
        policy = InhibitionPolicy("soft", v_inh=0.3)
        calls = _soft_calls(monkeypatch)
        got = forward_layer(net, 0, times, policy)
        assert calls == [1]
        assert got[:, 0, 0].tolist() == [0.1, 0.1, 0.3]
        assert np.array_equal(got, column_reference(net, 0, times, policy))
        assert forward_layer(net, 0, times)[:, 0, 0].tolist() == [0.1, 0.1, 0.1]

    def test_soft_chunk_cut_inside_a_sample(self, monkeypatch):
        rng = np.random.default_rng(91)
        spec = NetworkSpec(Shape3(2, 6, 6), [LayerSpec("conv", 3, 3, 4, 1, 0)])
        net = Network(spec, -0.3)
        net.weights[0] = rng.uniform(-0.3, 1.0, spec.weight_shape(0))
        net.thresholds[0] = rng.uniform(0.5, 2.0, 4)
        stack = np.stack([random_grid(rng, spec.input_shape, n, tie_heavy=True)
                          for n in (50, 72, 20)])
        policy = InhibitionPolicy("soft", v_inh=0.6)
        whole = forward_layer(net, 0, stack, policy)
        # a soft chunk counts each position's 18-slot window and 4 maps: 3
        # positions a chunk cuts each sample's 16 positions into 6 chunks
        monkeypatch.setattr(sim, "_CHUNK_ELEMS", 3 * (18 + 4))
        calls = _soft_calls(monkeypatch)
        cut = forward_layer(net, 0, stack, policy)
        assert len(calls) == 18 and max(calls) == 3
        assert np.array_equal(cut, whole)
        for got, grid in zip(cut, stack):
            assert np.array_equal(got, column_reference(net, 0, grid, policy))

    def test_all_silent_chunk(self, monkeypatch):
        rng = np.random.default_rng(92)
        spec = NetworkSpec(Shape3(1, 5, 5), [LayerSpec("conv", 2, 2, 3, 1, 0)])
        net = Network(spec)
        net.weights[0] = rng.uniform(0.0, 1.0, spec.weight_shape(0))
        net.thresholds[0] = rng.uniform(0.3, 1.5, 3)
        silent = np.full((1, 5, 5), INF)
        grid = random_grid(rng, spec.input_shape, 12, tie_heavy=True)
        stack = np.stack([silent, grid, silent])
        policy = InhibitionPolicy("soft", v_inh=0.5)
        # one sample a chunk: the first and last chunks hold no input at all
        monkeypatch.setattr(sim, "_CHUNK_ELEMS", 16 * (4 + 3))
        calls = _soft_calls(monkeypatch)
        out = forward_layer(net, 0, stack, policy)
        assert calls[0] == calls[2] == 0 and calls[1] > 0
        assert np.isinf(out[[0, 2]]).all()
        assert np.array_equal(out[1], column_reference(net, 0, grid, policy))
        assert np.isinf(forward_layer(net, 0, silent, policy)).all()

    def test_single_crossing_in_place_then_lowest_map_per_column(self, monkeypatch):
        # a 1x2 filter over [0.3, 0.1, 0.2]: column 0 takes its right input
        # (0.1) first, column 1 its left (0.1); each then takes its other one.
        # Step 0: only map 2 of column 1 crosses (1.0), the step's one
        # crossing, which fires in place and floors that column to
        # [0.4, 0.1, 0.9]. Step 1: column 0 reaches [1.2, 0.5, 1.0], where
        # maps 0 and 2 cross, and column 1 [1.1, 0.4, 0.9], where map 0 does.
        # Only each column's lowest crossing map fires: map 0 floors column
        # 0's map 2 to 0.9, below its threshold, and the inputs run out.
        times = np.array([[[0.3, 0.1, 0.2]]])
        weights = np.array([[0.5, 0.7], [0.2, 0.3], [1.0, 0.0]]).reshape(3, 1, 1, 2)
        net = _one_layer(times, weights, np.ones(3))
        policy = InhibitionPolicy("soft", v_inh=0.1)
        calls = _soft_calls(monkeypatch)
        rows = []
        real = sim._fire_row
        monkeypatch.setattr(sim, "_fire_row", lambda *a: rows.append(a[4:6]) or real(*a))
        got = forward_layer(net, 0, times, policy)
        assert calls == [2] and rows == [(2, 0)]  # only step 0's crossing steps in place
        assert got[:, 0, :].tolist() == [[0.3, 0.2], [INF, INF], [INF, 0.1]]
        assert np.array_equal(got, column_reference(net, 0, times, policy))
        free = forward_layer(net, 0, times)
        assert free[:, 0, :].tolist() == [[0.3, 0.2], [INF, INF], [0.3, 0.1]]

    def test_rechecks_fire_in_map_order(self):
        # one input per column, on which all four maps cross. Map 0 fires
        # and lowers the rest by 0.25; maps 1-3 still cross, so map 1 fires
        # next, which leaves map 2 below its threshold and map 3 exactly on
        # its own, where it fires
        times = np.array([[[0.1, 0.2]]])
        weights = np.array([1.0, 1.5, 1.5, 1.5]).reshape(4, 1, 1, 1)
        net = _one_layer(times, weights, np.array([1.0, 1.25, 1.25, 1.0]))
        policy = InhibitionPolicy("soft", v_inh=0.25)
        got = forward_layer(net, 0, times, policy)
        assert got[:, 0, :].tolist() == [[0.1, 0.2], [0.1, 0.2], [INF, INF], [0.1, 0.2]]
        assert np.array_equal(got, column_reference(net, 0, times, policy))

    def test_v_inh_that_floors_the_whole_column(self):
        # a 1x4 filter over five inputs 0.1 apart. Maps 0-2 all cross on the
        # second input; map 0 fires and floors the others to 0 exactly, so
        # map 1 needs two more inputs, and its fire floors map 2 again, which
        # never fires. Map 3's negative potential is lifted to 0 by the first
        # floor, and its 0.45 per input then reach 0.9 on the fourth input,
        # where map 1 fires first and floors it once more.
        per_tap = np.array([[0.6] * 4, [0.5] * 4, [0.5] * 4, [-0.5, 0.45, 0.45, 0.45]])
        weights = per_tap.reshape(4, 1, 1, 4)
        times = np.array([[[0.1, 0.2, 0.3, 0.4, 0.5]]])
        net = _one_layer(times, weights, np.array([1.0, 1.0, 0.9, 0.85]))
        policy = InhibitionPolicy("soft", v_inh=1e6)
        got = forward_layer(net, 0, times, policy)
        assert got[:, 0, :].tolist() == [[0.2, 0.3], [0.4, 0.5], [INF, INF], [INF, INF]]
        assert np.array_equal(got, column_reference(net, 0, times, policy))
        # a blow that leaves map 2 at 0.5 lets it fire on the next input
        policy = InhibitionPolicy("soft", v_inh=0.5)
        mild = forward_layer(net, 0, times, policy)
        assert mild[:3, 0, :].tolist() == [[0.2, 0.3], [0.3, 0.4], [0.4, 0.5]]
        assert np.array_equal(mild, column_reference(net, 0, times, policy))

    # the candidate rule: a step's fires resolve against the maps that crossed
    # at it, its candidates. ``max(v - v_inh, 0)`` lifts no potential to a
    # positive threshold, so after a fire only a later candidate can cross.
    @staticmethod
    def _four_columns():
        # a 1x1 filter over four input maps and four positions: position p
        # gets one input, on map p, so every column crosses at step 0 with
        # its own candidates. Map 0 crosses alone in column 0 (1.0) and map
        # 1 in column 1 (1.1); columns 2 and 3 see maps 0 and 1 cross. In
        # each, map 0 fires and takes 0.2 off: column 2's map 1 keeps
        # 1.3 - 0.2 = 1.1 and fires at the same input, column 3's drops to
        # 1.1 - 0.2 = 0.9 and is stopped. Map 2 reaches 0.5 in column 0 only.
        weights = np.array([[1.0, 0.0, 1.0, 1.0],
                            [0.5, 1.1, 1.3, 1.1],
                            [0.5, 0.0, 0.0, 0.0]]).reshape(3, 4, 1, 1)
        times = np.full((4, 1, 4), INF)
        for p, t in enumerate((0.1, 0.2, 0.3, 0.4)):
            times[p, 0, p] = t
        return _one_layer(times, weights, np.ones(3)), times

    @pytest.mark.parametrize("columns", [[0, 1, 2, 3], [0, 1]], ids=["mixed", "one-candidate"])
    def test_one_gathered_step(self, columns, monkeypatch):
        net, times = self._four_columns()
        silenced = times.copy()
        silenced[:, :, [p for p in range(4) if p not in columns]] = INF
        policy = InhibitionPolicy("soft", v_inh=0.2)
        calls = _soft_calls(monkeypatch)
        rows = []
        real = sim._fire_row
        monkeypatch.setattr(sim, "_fire_row", lambda *a: rows.append(a[4:6]) or real(*a))
        got = forward_layer(net, 0, silenced, policy)
        assert calls == [4] and rows == []  # one gathered step, no column alone
        want = np.array([[0.1, INF, 0.3, 0.4], [INF, 0.2, 0.3, INF], [INF] * 4])
        want[:, [p for p in range(4) if p not in columns]] = INF
        assert got[:, 0, :].tolist() == want.tolist()
        assert np.array_equal(got, column_reference(net, 0, silenced, policy))

    def test_lone_column_one_crossing_then_three(self, monkeypatch):
        # fc over two inputs, 0.1 then 0.3: one column. Map 0 crosses alone
        # on the first input and fires, flooring map 1 from 0.2 and map 3
        # from -0.4 to 0, and map 2 to 0.3 - 0.25. On the second input maps
        # 1-3 cross; map 1 fires first, map 2 keeps 1.35 - 0.25 = 1.1 and
        # fires too, and map 3 drops from 1.1 to 0.85 and is stopped. Map 3
        # crosses only because the first floor lifted it to 0.
        times = np.array([[[0.1, 0.3]]])
        weights = np.array([[1.0, 0.0], [0.2, 1.5], [0.3, 1.3], [-0.4, 1.1]]).reshape(4, 1, 1, 2)
        net = _one_layer(times, weights, np.ones(4), kind="fc")
        policy = InhibitionPolicy("soft", v_inh=0.25)
        calls = _soft_calls(monkeypatch)
        rows = []
        real = sim._fire_row
        monkeypatch.setattr(sim, "_fire_row", lambda *a: rows.append(a[4:6]) or real(*a))
        got = forward_layer(net, 0, times, policy)
        assert calls == [1] and rows == [(0, 0), (1, 1)]
        assert got[:, 0, 0].tolist() == [0.1, 0.3, 0.3, INF]
        assert np.array_equal(got, column_reference(net, 0, times, policy))
        # without the floor's lift map 3 would stay at 0.7, below its threshold
        assert forward_layer(net, 0, times)[:, 0, 0].tolist() == [0.1, 0.3, 0.3, INF]

    def test_signed_weights_floored_to_zero_in_a_stack(self):
        # the same fc column as samples of a stack: the lockstep steps them
        # together, and each sample's column is floored on its own. The
        # second sample gets the inputs in the other order, so its map 3
        # falls to -0.4 + 1.1 after map 1 fires on 0.1 and never fires.
        weights = np.array([[1.0, 0.0], [0.2, 1.5], [0.3, 1.3], [-0.4, 1.1]]).reshape(4, 1, 1, 2)
        stack = np.array([[[[0.1, 0.3]]], [[[0.3, 0.1]]], [[[0.1, INF]]]])
        net = _one_layer(stack[0], weights, np.ones(4), kind="fc")
        policy = InhibitionPolicy("soft", v_inh=0.25)
        got = forward_layer(net, 0, stack, policy)
        assert got[:, :, 0, 0].tolist() == [[0.1, 0.3, 0.3, INF], [0.3, 0.1, 0.1, INF],
                                            [0.1, INF, INF, INF]]
        for out, grid in zip(got, stack):
            assert np.array_equal(out, column_reference(net, 0, grid, policy))

    def test_small_blows_let_second_candidates_fire(self):
        # the sweep below draws v_inh where second candidates survive: with
        # distinct input times, two maps of one column firing at the same
        # time fired on the same input
        rng = np.random.default_rng(95)
        spec = NetworkSpec(Shape3(2, 6, 6), [LayerSpec("conv", 3, 3, 5, 1, 0)])
        net = Network(spec)
        net.weights[0] = rng.uniform(0.0, 1.0, spec.weight_shape(0))
        net.thresholds[0] = rng.uniform(0.5, 3.0, 5)
        stack = np.stack([random_grid(rng, spec.input_shape, 40) for _ in range(3)])
        policy = InhibitionPolicy("soft", v_inh=0.01)
        got = forward_layer(net, 0, stack, policy)
        times = got.reshape(3, 5, -1)
        same = (times[:, :, None] == times[:, None, :]) & np.isfinite(times[:, :, None])
        assert (same.sum(axis=(1, 2)) > 5).any()  # beyond each map matching itself
        for out, grid in zip(got, stack):
            assert np.array_equal(out, column_reference(net, 0, grid, policy))
            assert np.array_equal(forward_layer(net, 0, grid, policy), out)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_small_blows_bitwise_the_column_reference(self, data):
        # stacks and their single grids, on conv layers of several positions
        # and on layers of one position, at blows small enough that second
        # candidates survive
        if data.draw(st.booleans()):
            net, grid, _ = data.draw(_column_policy_cases())
            rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
            counts = data.draw(st.lists(st.integers(0, net.spec.input_shape.size), max_size=2))
            stack = np.stack([grid] + [random_grid(rng, net.spec.input_shape, n, tie_heavy=True)
                                       for n in counts])
        else:
            net, stack, _ = data.draw(_one_position_cases())
        policy = InhibitionPolicy("soft", v_inh=data.draw(st.floats(0.001, 0.05)))
        _pin_thresholds(data.draw, net, stack, policy)
        got = forward_layer(net, 0, stack, policy)
        for out, grid in zip(got, stack):
            want = column_reference(net, 0, grid, policy)
            assert np.array_equal(out, want)
            assert np.array_equal(forward_layer(net, 0, grid, policy), want)


class TestLockstepThresholds:
    def test_rows_that_never_reach_threshold_step_with_the_rest(self, monkeypatch):
        # a 1x3 filter over [0.1, 0.2, 0.3, silent, silent]: position 2 gets
        # one input, below both thresholds, and map 1 at position 1 two,
        # below its own. The lockstep holds every map of every position with
        # input at its threshold until it fires; these never do. Map 0 fires
        # on the second input at positions 0 and 1, and at position 0 map 1
        # climbs back from the 0.1 blow and fires on the third.
        times = np.array([[[0.1, 0.2, 0.3, INF, INF]]])
        weights = np.array([[0.5] * 3, [0.2] * 3]).reshape(2, 1, 1, 3)
        thresholds = np.array([1.0, 0.5])
        net = _one_layer(times, weights, thresholds)
        assert 0.5 < thresholds[0] and 0.2 + 0.2 < thresholds[1]  # the two rows' total inputs
        policy = InhibitionPolicy("soft", v_inh=0.1)
        calls = _soft_calls(monkeypatch)
        got = forward_layer(net, 0, times, policy)
        assert calls == [3]
        assert got[:, 0, :].tolist() == [[0.2, 0.3, INF], [0.3, INF, INF]]
        assert np.array_equal(got, column_reference(net, 0, times, policy))


class TestInputMajorRows:
    """``Network.weights.input_major``, the one stored (input-major) array of
    a layer's weights that every engine reads."""

    def _net(self):
        rng = np.random.default_rng(93)
        spec = NetworkSpec(Shape3(2, 7, 7), [
            LayerSpec("conv", 3, 3, 4, 1, 0),
            LayerSpec("pool", 2, 2, 4, 2, 0),
            LayerSpec("fc", 2, 2, 5, 1, 0),
        ])
        net = Network(spec)
        for i in (0, 2):
            net.install_column(i, rng.uniform(0.0, 1.0, spec.weight_shape(i)),
                               rng.uniform(0.5, 2.0, spec.layers[i].maps))
        stack = np.stack([random_grid(rng, spec.input_shape, n, tie_heavy=True)
                          for n in (30, 60, 0, 90)])
        return net, stack

    @staticmethod
    def _inputs(net, stack, index):
        for i in range(index):
            stack = forward_layer(net, i, stack)
        return stack

    def test_rows_are_the_transposed_weights(self):
        net, _ = self._net()
        rng = np.random.default_rng(94)
        for i in (0, 2):
            installed = rng.uniform(0.0, 1.0, net.spec.weight_shape(i))
            net.weights[i] = installed
            w = net.weights[i]
            rows = net.weights.input_major(i)
            assert np.array_equal(rows, w.reshape(len(w), -1).T)
            assert rows.flags.c_contiguous and not rows.flags.writeable
            assert net.weights.input_major(i) is rows  # made once
            with pytest.raises(ValueError, match="read-only"):
                rows[0, 0] = 0.5
            # the map-major slot is a read-only view of the same array
            assert w.shape == net.spec.weight_shape(i) and np.array_equal(w, installed)
            assert np.shares_memory(w, rows) and not w.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                w[0, 0, 0, 0] = 0.5
        with pytest.raises(ValueError, match="layer 1 holds no weights"):
            net.weights.input_major(1)  # pooling
        unready = Network(net.spec)
        with pytest.raises(ValueError, match="layer 2 holds no weights"):
            unready.weights.input_major(2)

    def test_every_engine_reads_the_stored_array(self, monkeypatch):
        # the array, its live slots and their rows are stored at install, and
        # every engine of a conv or fc layer reads them as they are: nothing
        # is made on first use, and beside the array only the live-slot
        # index and the live rows are kept, both under ``_live``
        net, stack = self._net()
        stored = [net.weights.input_major(i) for i in (0, 2)]
        live = [net.weights.live_slots(i) for i in (0, 2)]
        rows = [net.weights.live_rows(i) for i in (0, 2)]
        made = []
        real = type(net.weights).input_major
        monkeypatch.setattr(type(net.weights), "input_major",
                            lambda slots, i: made.append(i) or real(slots, i))
        policies = (NO_INHIBITION, InhibitionPolicy("wta"), InhibitionPolicy("soft", v_inh=0.4))
        times = stack
        for i in range(3):
            for policy in policies:
                out = forward_layer(net, i, times, policy)
            times = out
        assert made == [0, 0, 0, 2, 2, 2]
        assert all(real(net.weights, i) is rows for i, rows in zip((0, 2), stored))
        assert all(net.weights.live_slots(i) is s for i, s in zip((0, 2), live))
        assert all(net.weights.live_rows(i) is r for i, r in zip((0, 2), rows))
        assert vars(net.weights).keys() == {"_kind", "_spec", "_bounds", "_items", "_live"}

    @pytest.mark.parametrize("write", ["slot", "install"])
    def test_a_write_reaches_the_next_forward(self, write):
        # conv and fc soft run the lockstep, fc column WTA the event engine;
        # each reads the rows of the weights written last, never a stale copy
        net, stack = self._net()
        cases = [(0, InhibitionPolicy("soft", v_inh=0.4)),
                 (2, InhibitionPolicy("soft", v_inh=0.4)),
                 (2, InhibitionPolicy("wta"))]
        for index, policy in cases:
            grids = self._inputs(net, stack, index)
            before = forward_layer(net, index, grids, policy)
            new = 1.0 - net.weights[index][::-1]
            if write == "slot":
                net.weights[index] = new
            else:
                net.install_column(index, new, net.thresholds[index])
            assert np.array_equal(net.weights.input_major(index),
                                  new.reshape(len(new), -1).T)
            got = forward_layer(net, index, grids, policy)
            assert not np.array_equal(got, before)
            for out, grid in zip(got, grids):
                assert np.array_equal(out, column_reference(net, index, grid, policy))

    @pytest.mark.parametrize("write", ["slot", "install"])
    def test_killing_or_reviving_a_slot_reaches_every_engine(self, write):
        # the block scan, the lockstep and the event engine each scan the
        # live slots of the weights written last, never a stale index
        net, stack = self._net()
        policies = (NO_INHIBITION, InhibitionPolicy("wta"), InhibitionPolicy("soft", v_inh=0.4),
                    InhibitionPolicy("wta", scope="layer"),
                    InhibitionPolicy("soft", v_inh=0.4, scope="layer"))
        for index in (0, 2):
            grids = self._inputs(net, stack, index)
            whole = net.weights[index]
            window = len(net.weights.input_major(index))
            before = [forward_layer(net, index, grids, p) for p in policies]
            killed = whole.reshape(len(whole), -1).copy()
            killed[:, ::2] = 0.0
            killed = killed.reshape(whole.shape)
            outs = {}
            for name, weights, live in (("killed", killed, np.arange(1, window, 2)),
                                        ("revived", whole, np.arange(window))):
                if write == "slot":
                    net.weights[index] = weights
                else:
                    net.install_column(index, weights, net.thresholds[index])
                assert np.array_equal(net.weights.live_slots(index), live)
                outs[name] = [forward_layer(net, index, grids, p) for p in policies]
                for policy, got in zip(policies, outs[name]):
                    assert np.array_equal(got, _full_window(net, index, grids, policy))
                    if _column_scoped(net, index, policy):
                        for out, grid in zip(got, grids):
                            assert np.array_equal(out, column_reference(net, index, grid, policy))
            assert all(np.array_equal(a, b) for a, b in zip(outs["revived"], before))
            assert not all(np.array_equal(a, b) for a, b in zip(outs["killed"], before))
        # the index is never saved, and a loaded model records its own
        data = network_bytes(net)
        loaded = network_from_bytes(data)
        assert network_bytes(loaded) == data
        for index in (0, 2):
            assert np.array_equal(loaded.weights.live_slots(index), net.weights.live_slots(index))

    def test_rows_are_not_saved(self):
        net, stack = self._net()
        before = network_bytes(net)
        for grid in stack:
            forward_times(net, grid, InhibitionPolicy("soft", v_inh=0.4))
        assert network_bytes(net) == before

    def test_dropped_network_with_rows_is_freed_at_once(self):
        import gc
        import weakref

        net, stack = self._net()
        forward_times(net, stack[0], InhibitionPolicy("soft", v_inh=0.4))
        ref = weakref.ref(net)
        gc.disable()
        try:
            del net
            assert ref() is None
        finally:
            gc.enable()


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

    def test_patch_of_another_shape_rejected(self):
        # a smaller patch would be scored against the first weights
        weights = np.ones((3, 2, 2, 2))
        for patch in (np.zeros((2, 2, 1)), np.zeros((1, 2, 2)), np.zeros(8)):
            with pytest.raises(ValueError, match=rf"patch {re.escape(str(patch.shape))}.*"
                                                 r"need \(2, 2, 2\)"):
                column_response(patch, weights, np.ones(3))

    def test_thresholds_of_another_shape_rejected(self):
        for th in (np.ones(2), np.ones((3, 1)), np.float64(1.0)):
            with pytest.raises(ValueError, match=r"thresholds.*need .* and \(3,\)"):
                column_response(np.zeros((1, 2, 2)), np.ones((3, 1, 2, 2)), th)

    def test_non_finite_thresholds_rejected(self):
        # a NaN threshold never crosses, so it would read as "no winner"
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                column_response(np.zeros((1, 2, 2)), np.ones((3, 1, 2, 2)),
                                np.array([1.0, bad, 1.0]))


def _one_layer(times, weights, thresholds, kind="conv"):
    """One layer holding ``weights``, under bounds [0, 1] widened to hold them."""
    d_in, h, w = times.shape
    _, _, fh, fw = weights.shape
    net = Network(NetworkSpec(Shape3(d_in, h, w),
                              [LayerSpec(kind, fh, fw, weights.shape[0], 1, 0)]),
                  min(0.0, weights.min()), max(1.0, weights.max()))
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
    # thresholds equal to an exact positive sequential partial sum (often the
    # whole window's) of one window: the pre-filter's margin must keep them
    for d in range(maps):
        if rng.random() < 0.6:
            y, x = int(rng.integers(h - fh + 1)), int(rng.integers(w - fw + 1))
            win = times[:, y:y + fh, x:x + fw].ravel()
            slots = np.nonzero(np.isfinite(win))[0]
            if slots.size:
                slots = slots[np.argsort(win[slots], kind="stable")]
                sums = np.cumsum(weights[d].ravel()[slots])
                k = slots.size - 1 if rng.random() < 0.5 else int(rng.integers(slots.size))
                if sums[k] > 0.0:  # a network holds positive thresholds only
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

    def test_column_wta_stops_each_column_at_its_own_first_crossing(self):
        # two columns of one 40-slot window, rows of a (1, 2, 40) field. The
        # first sees its inputs in slot order: maps 1 and 2 tie at slot 20,
        # in the second block, and map 0 crosses one slot later, so map 1
        # wins. The second sees slots 32-39 first: map 2 crosses at its 7th
        # input and map 0 at its 8th, both in the first block, so map 2 wins
        w = np.ones((3, 40))
        w[[0, 2], 32:] = 3.0
        weights = w.reshape(3, 1, 1, 40)
        thresholds = np.array([22.0, 21.0, 21.0])
        times = np.empty((1, 2, 40))
        times[0, 0] = np.arange(1, 41) / 128
        times[0, 1] = np.concatenate([np.arange(9, 41), np.arange(1, 9)]) / 128
        net = _one_layer(times, weights, thresholds)
        free = forward_layer(net, 0, times)[:, :, 0]
        assert free[:, 0].tolist() == [22 / 128, 21 / 128, 21 / 128]
        assert free[:, 1].tolist() == [8 / 128, 21 / 128, 7 / 128]
        want = np.full((3, 2, 1), np.inf)
        want[1, 0, 0], want[2, 1, 0] = 21 / 128, 7 / 128
        got = forward_layer(net, 0, times, InhibitionPolicy("wta"))
        assert np.array_equal(got, want)
        assert np.array_equal(got, _cumsum_reference(times, weights, thresholds, True))

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

    def test_threshold_at_exact_sequential_sum_fires_in_a_multi_position_layer(self):
        # the fc case above on a 1x3 conv over four sites, the layer of
        # several positions whose block scan takes the bound: position 0 sees
        # the three inputs in that time order, position 1 only two of them
        small = 2.0 ** -53 + 2.0 ** -60
        w = np.array([small, small, 1.0])
        th = 1.0 + 2.0 ** -51
        assert np.cumsum(w[::-1])[-1] == th and np.sum(w) < th
        weights = np.stack([w, w]).reshape(2, 1, 1, 3)
        thresholds = np.array([th, np.nextafter(th, np.inf)])
        times = np.array([[[0.3, 0.2, 0.1, np.inf]]])
        net = _one_layer(times, weights, thresholds)
        for policy, wta in ((NO_INHIBITION, False), (InhibitionPolicy("wta"), True)):
            out = forward_layer(net, 0, times, policy)
            assert out[:, 0, :].tolist() == [[0.3, np.inf], [np.inf, np.inf]]
            assert np.array_equal(out, _cumsum_reference(times, weights, thresholds, wta))

    def test_silent_input_sites_are_silent_in_every_engine(self):
        # the +inf twin of test_rejects_non_finite's fc grid: the silent site
        # adds nothing, and the last input crosses in every engine
        weights, thresholds = np.ones((1, 1, 1, 3)), np.array([2.0])
        times = np.array([[[np.inf, 0.2, 0.5]]])
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


@st.composite
def _column_cases(draw):
    """One column of up to 64 maps x 600 inputs over a tie-heavy patch, its
    weights signed or non-negative; a map's threshold often equals one of its
    exact sequential partial sums past the first block (often the whole
    patch's), which only the scan's own order of additions reaches."""
    d_in = draw(st.integers(1, 6))
    fh, fw = draw(st.sampled_from([(1, 3), (3, 3), (5, 5), (4, 10), (10, 10)]))
    maps = draw(st.integers(1, 64))
    signed = draw(st.booleans())
    silent = draw(st.floats(0.0, 0.8))
    levels = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    times = np.where(rng.random((d_in, fh, fw)) < silent, np.inf,
                     rng.integers(0, levels, (d_in, fh, fw)) / levels)
    weights = rng.uniform(-0.5 if signed else 0.0, 1.0, (maps, d_in, fh, fw))
    slots = np.nonzero(np.isfinite(times.ravel()))[0]
    slots = slots[np.argsort(times.ravel()[slots], kind="stable")]
    if draw(st.booleans()):
        thresholds = rng.uniform(0.1, 0.6 * slots.size + 0.1, maps)
    else:  # out of every map's reach: no winner but at the exact sums below
        reach = np.maximum(weights, 0.0).reshape(maps, -1).sum(axis=1)
        thresholds = reach + rng.uniform(0.01, 1.0, maps)
    exact = draw(st.sampled_from([0.0, 0.05, 0.6]))
    whole = draw(st.booleans())  # whole-patch sums only: a crossing at the last input
    for d in range(maps):
        if slots.size and rng.random() < exact:
            sums = np.cumsum(weights[d].ravel()[slots])
            low = min(sim._BLOCK0, slots.size - 1)
            k = slots.size - 1 if whole or rng.random() < 0.5 else int(rng.integers(low, slots.size))
            if sums[k] > 0.0:  # a network holds positive thresholds only
                thresholds[d] = sums[k]
    return times, weights, thresholds


def _column_winner(times, weights, thresholds):
    """(winner, fire time) of ``column_response``, checked against the event
    engine (WTA on a one-position layer) and one cumsum per map."""
    res = column_response(times, weights, thresholds)
    net = _one_layer(times, weights, thresholds, kind="fc")
    out = forward_layer(net, 0, times, InhibitionPolicy("wta"))
    assert np.array_equal(out, _cumsum_reference(times, weights, thresholds, True))
    fired = np.nonzero(np.isfinite(out[:, 0, 0]))[0].tolist()
    if res.winner is None:
        assert fired == [] and res.fire_time is None
    else:
        assert fired == [res.winner] and res.fire_time == out[res.winner, 0, 0]
    return res.winner, res.fire_time


class TestColumnScan:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(_column_cases())
    def test_column_scan_matches_event_engine_and_one_cumsum(self, case):
        _column_winner(*case)

    @pytest.mark.parametrize("k", [15, 16, 17, 47, 48, 49])
    def test_first_crossing_at_a_block_edge(self, k):
        # blocks of 16, 32, 64 inputs: slots 16 and 48 start the second and
        # third; maps 1 and 2 tie at slot k, map 0 never crosses
        times = (np.arange(100, dtype=float) / 128).reshape(1, 1, 100)
        weights = np.ones((3, 1, 1, 100))
        thresholds = np.array([200.0, k + 1.0, k + 1.0])
        assert _column_winner(times, weights, thresholds) == (1, k / 128)
        thresholds[1] = k + 2.0  # map 2 alone crosses at k
        assert _column_winner(times, weights, thresholds) == (2, k / 128)

    def test_column_no_map_reaches_has_no_winner(self):
        # every threshold sits just above its map's whole-patch sum, so the
        # scan walks all 200 inputs in blocks of 16, 32, 64 and 88 and no
        # map fires, with or without a negative weight
        rng = np.random.default_rng(31)
        times = rng.random((2, 10, 10))
        weights = rng.uniform(0.0, 1.0, (8, 2, 10, 10))
        thresholds = weights.reshape(8, -1).sum(axis=1) + 1e-9
        assert _column_winner(times, weights, thresholds) == (None, None)
        weights[3, 1, 9, 9] = -0.5
        assert _column_winner(times, weights, thresholds) == (None, None)

    def test_threshold_at_exact_sequential_sum_past_the_first_block_fires(self):
        # after a first block of zero weights, a weight of 1.0 and then 16
        # weights just over half its ulp: the running sum rounds up at each
        # of them and lands exactly on map 0's threshold, while any other
        # summation order, a dot product included, falls short of it
        small = 2.0 ** -53 + 2.0 ** -60
        w = np.concatenate([np.full(16, small), np.zeros(16), [1.0]])
        times = np.concatenate([np.arange(16) / 64 + 0.5, np.zeros(16), [0.25]])
        th = 1.0 + 16 * 2.0 ** -52
        assert w @ np.ones(33) < th
        weights = np.stack([w, w]).reshape(2, 1, 1, 33)
        thresholds = np.array([th, np.nextafter(th, np.inf)])
        assert _column_winner(times.reshape(1, 1, 33), weights, thresholds) == (0, 0.5 + 15 / 64)

    def test_negative_weight_crossing_above_the_final_sum_is_found(self):
        # the map's running sum reaches its threshold past the first block,
        # and a late negative weight leaves its whole-patch sum below it
        times = (np.arange(60, dtype=float) / 64).reshape(1, 6, 10)
        w = np.zeros(60)
        w[20] = 2.0
        w[59] = -1.5
        weights = w.reshape(1, 1, 6, 10)
        assert _column_winner(times, weights, np.array([1.0])) == (0, 20 / 64)


def _widths(monkeypatch):
    """The neuron counts of every slot-major block the scans sum, as they run."""
    seen = []
    real = sim._running

    def running(ufunc, v):
        seen.append(v.shape[1])
        return real(ufunc, v)
    monkeypatch.setattr(sim, "_running", running)
    return seen


class TestSlotMajorScan:
    @pytest.mark.parametrize("signed", [False, True])
    def test_slots_past_a_rows_last_input_never_fire_it(self, signed):
        # three positions of one 64-slot window see 20, 47 and 60 inputs, so
        # with blocks of 16, 32 and 12 slots the first two rows end inside a
        # block; their silent slots carry weights that would cross at once,
        # and a map whose threshold is one ulp above the running sums up to
        # its k-th input fires only where the position has a k-th input
        counts = (20, 47, 60)
        rng = np.random.default_rng(5)
        w = np.concatenate([rng.uniform(0.1, 0.3, 20), np.full(44, 3.0)])
        if signed:
            w[[3, 11]] = -0.25
        times = np.full((1, 1, 192), np.inf)
        for p, n in enumerate(counts):
            times[0, 0, 64 * p:64 * p + n] = np.arange(1, n + 1) / 128
        th = np.array([np.nextafter(np.maximum.accumulate(np.cumsum(w[:k]))[-1], np.inf)
                       for k in counts])
        free = np.array([[np.inf if n <= k else (k + 1) / 128 for n in counts] for k in counts])
        # under column WTA map 0 wins every column it fires in, at its 21st input
        wta = np.full((3, 3), np.inf)
        wta[0] = free[0]
        # maps 1 and 2 alone: the rows of 20 and 47 inputs end inside a block
        for maps in ([0, 1, 2], [1], [2]):
            spec = NetworkSpec(Shape3(1, 1, 192), [LayerSpec("conv", 1, 64, len(maps), 64, 0)])
            net = Network(spec, -1.0 if signed else 0.0, 3.0)
            net.weights[0] = np.tile(w, (len(maps), 1)).reshape(len(maps), 1, 1, 64)
            net.thresholds[0] = th[maps]
            for policy, want in ((NO_INHIBITION, free), (InhibitionPolicy("wta"), wta)):
                got = forward_layer(net, 0, times, policy)
                assert np.array_equal(got, column_reference(net, 0, times, policy))
                oracle = DenseSimulator(net, policy).simulate(times)[0]
                assert np.array_equal(np.isfinite(got), np.isfinite(oracle))
                assert np.array_equal(got[:, 0], (free if len(maps) == 1 else want)[maps])

    def test_stack_and_single_grid_on_both_sides_of_the_vector_cutoff(self, monkeypatch):
        # a single grid holds fewer (map, position) rows than the cutoff and
        # takes np.cumsum; the stack's chunk holds more and adds slot by slot
        rng = np.random.default_rng(17)
        spec = NetworkSpec(Shape3(2, 6, 6), [LayerSpec("conv", 3, 3, 8, 1, 0)])
        net = Network(spec)
        net.weights[0] = rng.uniform(0.0, 1.0, spec.weight_shape(0))
        net.thresholds[0] = rng.uniform(0.5, 4.0, 8)
        stack = np.stack([random_grid(rng, spec.input_shape, n, tie_heavy=True)
                          for n in (50, 20, 72, 35, 60, 44)])
        assert 8 * 16 < sim._VECTOR_ROWS < len(stack) * 8 * 16
        for policy in (NO_INHIBITION, InhibitionPolicy("wta")):
            widths = _widths(monkeypatch)
            _check_stack(net, stack, policy)
            assert max(widths) >= sim._VECTOR_ROWS
            widths.clear()
            forward_layer(net, 0, stack[2], policy)
            assert 0 < max(widths) < sim._VECTOR_ROWS

    @pytest.mark.parametrize("maps, shape", [(512, (32, 4, 4)), (16, (2, 5, 5))])
    def test_column_response_of_fc_wide_and_conv1_sized_columns(self, maps, shape, monkeypatch):
        # fc512 sums its blocks slot by slot, a conv1 column with np.cumsum;
        # thresholds put the winner in the first block, a later one, or nowhere
        rng = np.random.default_rng(maps)
        widths = _widths(monkeypatch)
        seen = set()
        for scale in (0.05, 0.2, 0.5, 2.0):
            size = int(np.prod(shape))  # distinct times: one event order
            times = np.where(rng.random(shape) < 0.3, np.inf,
                             rng.permutation(size).reshape(shape) / size)
            weights = rng.uniform(0.0, 1.0, (maps,) + shape)
            inputs = np.isfinite(times).sum()
            thresholds = rng.uniform(0.5, 1.0, maps) * scale * inputs
            winner, t = _column_winner(times, weights, thresholds)
            if winner is None:
                seen.add("none")
            else:
                k = np.count_nonzero(times < t)  # the winning input's slot
                seen.add("first block" if k < sim._BLOCK0 else "later block")
        assert seen == {"first block", "later block", "none"}
        assert (min(widths) >= sim._VECTOR_ROWS) == (maps >= sim._VECTOR_ROWS)


class TestBlockCap:
    def test_no_block_past_the_chunk_cap(self, monkeypatch):
        # a wide one-position chunk: an fc layer of 128 maps over 64 slots
        # holds 94 samples a chunk, 12,032 rows; once the first block's
        # crossings leave, the doubled second block would still pass the cap
        rng = np.random.default_rng(61)
        spec = NetworkSpec(Shape3(1, 8, 8), [LayerSpec("fc", 8, 8, 128, 1, 0)])
        net = Network(spec)
        net.weights[0] = rng.uniform(0.0, 1.0, spec.weight_shape(0))
        net.thresholds[0] = rng.uniform(4.0, 40.0, 128)
        stack = np.stack([random_grid(rng, spec.input_shape, int(n))
                          for n in rng.integers(40, 65, 100)])
        blocks = []
        real = sim._running

        def running(ufunc, v):
            blocks.append(v.shape)
            return real(ufunc, v)

        monkeypatch.setattr(sim, "_running", running)
        got = forward_layer(net, 0, stack)
        assert blocks[0] == (sim._BLOCK0, 94 * 128)
        assert 2 * sim._BLOCK0 * blocks[1][1] > sim._CHUNK_ELEMS > blocks[1][0] * blocks[1][1]
        assert max(slots * rows for slots, rows in blocks) <= sim._CHUNK_ELEMS
        # rows fire in the first block, past the second, and never
        fired = got.reshape(100, 128, 1)
        k = (stack.reshape(100, 1, -1) < fired).sum(axis=2)[np.isfinite(fired[:, :, 0])]
        assert np.isinf(fired).any() and (k < 16).any() and (k >= 48).any()
        # an unbounded chunk, whose blocks double freely, fires every row alike
        blocks.clear()
        monkeypatch.setattr(sim, "_CHUNK_ELEMS", 10 ** 9)
        assert np.array_equal(forward_layer(net, 0, stack), got)
        assert [slots for slots, _ in blocks] == [16, 32, 16]
        for grid, out in zip(stack, got):
            assert np.array_equal(out, column_reference(net, 0, grid, NO_INHIBITION))


@st.composite
def _stack_cases(draw):
    """A drawn network, a policy and a stack of 1-5 tie-heavy input grids.

    Weights are signed or non-negative; each grid holds its own number of
    spikes, none at all included, so the samples' event counts are ragged.
    """
    signed = draw(st.booleans())
    net = drawn_network(lambda lo, hi: draw(st.integers(lo, hi - 1)),
                        lambda options: draw(st.sampled_from(options)),
                        np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).uniform,
                        w_low=-0.5 if signed else 0.0)
    shape = net.spec.input_shape
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    counts = draw(st.lists(st.integers(0, shape.size), min_size=1, max_size=5))
    stack = np.stack([random_grid(rng, shape, n, tie_heavy=True) for n in counts])
    return net, stack, draw(st.sampled_from(SWEEP_POLICIES))


def _check_stack(net, stack, policy):
    """Each layer's output for the stack: bitwise the single-grid outputs, and the oracle's."""
    singles = [forward_times(net, grid, policy) for grid in stack]
    times = stack
    for li in range(len(net.spec.layers)):
        times = forward_layer(net, li, times, policy)
        assert times.shape == (len(stack),) + net.spec.shapes[li + 1].astuple()
        for got, single in zip(times, singles):
            assert np.array_equal(got, single[li]), f"layer {li}"
    for grid, single in zip(stack, singles):
        for li, (g, w) in enumerate(zip(single, DenseSimulator(net, policy).simulate(grid))):
            fired = np.isfinite(w)
            assert np.array_equal(np.isfinite(g), fired), f"layer {li} sites differ"
            assert np.all(np.abs(g[fired] - w[fired]) < 1e-6), f"layer {li} times differ"


class TestStacks:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_stack_cases())
    def test_stack_equals_single_grids_and_oracle(self, case):
        _check_stack(*case)

    def test_stack_spanning_several_chunks(self, monkeypatch):
        # a cap of a few positions per chunk: chunks cut across samples, and
        # every layer of a conv-pool-fc stack runs in several of them
        import spikeconv.simulate as sim

        rng = np.random.default_rng(55)
        spec = NetworkSpec(Shape3(2, 7, 7), [
            LayerSpec("conv", 3, 3, 4, 1, 1),
            LayerSpec("pool", 2, 2, 4, 2, 0),
            LayerSpec("fc", 3, 3, 5, 1, 0),
        ])
        net = Network(spec, -0.3)
        for i, w_low in ((0, -0.3), (2, 0.0)):
            net.weights[i] = rng.uniform(w_low, 1.0, spec.weight_shape(i))
            net.thresholds[i] = rng.uniform(0.5, 2.0, spec.layers[i].maps)
        # signed bounds scan every layer without the bound pre-filter; under
        # bounds [0, 1] the conv layer's block scan takes it (the one-position
        # fc layer and every soft lockstep never do)
        unsigned = Network(spec)
        unsigned.install_column(0, np.abs(net.weights[0]), net.thresholds[0])
        unsigned.install_column(2, net.weights[2], net.thresholds[2])
        stack = np.stack([random_grid(rng, spec.input_shape, n, tie_heavy=True)
                          for n in (40, 0, 12, 98, 3, 60)])
        monkeypatch.setattr(sim, "_CHUNK_ELEMS", 3 * (4 * sim._BLOCK0 + 18))
        for policy in SWEEP_POLICIES:
            _check_stack(net, stack, policy)
            _check_stack(unsigned, stack, policy)

    def test_stack_size_counts_the_layers_of_its_range(self):
        # the acceptance architecture 16c5-p2-32c5-p2-fc512 on 2x28x28 input:
        # the whole network, the last layer alone and training's two advances
        spec = NetworkSpec(Shape3(2, 28, 28), [LayerSpec("conv", 5, 5, 16, 1, 0),
                                               LayerSpec("pool", 2, 2, 16, 2, 0),
                                               LayerSpec("conv", 5, 5, 32, 1, 0),
                                               LayerSpec("pool", 2, 2, 32, 2, 0),
                                               LayerSpec("fc", 4, 4, 512, 1, 0)])
        assert sim.stack_size(spec) == sim.stack_size(spec, 0, 5) == 200_000 // 16_160 == 12
        assert sim.stack_size(spec, 4) == 200_000 // (512 + 512) == 195
        assert sim.stack_size(spec, 0, 2) == 200_000 // (1_568 + 9_216 + 2_304) == 15
        assert sim.stack_size(spec, 2, 4) == 200_000 // (2_304 + 2_048 + 512) == 41

    def test_forward_stacks_sized_by_its_range(self):
        # a range that ends below a wide layer takes more samples a stack
        spec = NetworkSpec(Shape3(1, 4, 4), [LayerSpec("conv", 3, 3, 2, 1, 0),
                                             LayerSpec("conv", 1, 1, 40_000, 1, 0)])
        net = Network(spec)
        for i in (0, 1):
            net.install_column(i, np.full(spec.weight_shape(i), 0.5), np.ones(spec.layers[i].maps))
        grids = np.zeros((40, 1, 4, 4))
        assert sim.stack_size(spec) == 1 and sim.stack_size(spec, 0, 1) == 200_000 // 24 >= 40
        ((lo, (out,)),) = sim.forward_stacks(net, grids, start=0, stop=1)
        assert lo == 0 and out.shape == (40, 2, 2, 2)

    def test_single_grid_keeps_its_rank(self):
        net = _one_layer(np.zeros((1, 3, 3)), np.ones((2, 1, 2, 2)), np.ones(2))
        grid = np.full((1, 3, 3), 0.25)
        assert forward_layer(net, 0, grid).shape == (2, 2, 2)
        assert forward_layer(net, 0, grid[None]).shape == (1, 2, 2, 2)
        assert forward_layer(net, 0, np.empty((0, 1, 3, 3))).shape == (0, 2, 2, 2)


def _full_window(net, index, times, policy):
    """``forward_layer`` scanning every window slot, the dead ones included."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(type(net.weights), "live_slots",
                   lambda slots, i: np.arange(len(slots.input_major(i))))
        return forward_layer(net, index, times, policy)


def _column_scoped(net, index, policy):
    """Whether ``column_reference`` gives layer ``index``'s answer under ``policy``."""
    return (policy.scope == "column" or policy.mode == "none"
            or policy.mode == "soft" and policy.v_inh == 0.0
            or policy.layers == "output" and index != len(net.spec.layers) - 1)


def _kill_slots(net, index, dead, rng):
    """Zero layer ``index``'s weights at window slots ``dead`` in every map,
    each weight +0.0 or -0.0 at random."""
    rows = np.array(net.weights.input_major(index))
    rows[dead] = np.where(rng.random(rows[dead].shape) < 0.5, -0.0, 0.0)
    net.weights[index] = rows.T.reshape(net.spec.weight_shape(index))


@st.composite
def _dead_slot_cases(draw):
    """A drawn network whose trainable layers have dead window slots, a
    stack of 1-4 tie-heavy grids and a policy.

    Weights are signed or non-negative, and non-negative weights sit under
    bounds [0, 1] or signed bounds. Each trainable layer zeroes a drawn share
    of its window slots in every map, with +0.0 and -0.0 mixed; a share of 1
    zeroes the whole layer.
    """
    signed = draw(st.booleans())
    net = drawn_network(lambda lo, hi: draw(st.integers(lo, hi - 1)),
                        lambda options: draw(st.sampled_from(options)),
                        np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).uniform,
                        w_low=-0.5 if signed else 0.0)
    if not signed and draw(st.booleans()):
        twin = Network(net.spec, draw(st.floats(-2.0, -1e-3)), 1.0)
        for i in net.spec.trainable_indices():
            twin.install_column(i, net.weights[i], net.thresholds[i])
        net = twin
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    for i in net.spec.trainable_indices():
        share = draw(st.sampled_from([0.0, 0.3, 0.7, 0.9, 1.0]))
        window = len(net.weights.input_major(i))
        _kill_slots(net, i, rng.random(window) < share, rng)
    counts = draw(st.lists(st.integers(0, net.spec.input_shape.size), min_size=1, max_size=4))
    stack = np.stack([random_grid(rng, net.spec.input_shape, n, tie_heavy=True)
                      for n in counts])
    return net, stack, draw(st.sampled_from(SWEEP_POLICIES))


class TestDeadSlots:
    """A window slot where every map's weight is zero adds exactly zero to
    every potential, so every engine scans only the live slots."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_dead_slot_cases())
    def test_dead_slots_change_no_bit(self, case):
        net, stack, policy = case
        _check_stack(net, stack, policy)  # stack, single grids and the oracle
        times = stack
        for li, layer in enumerate(net.spec.layers):
            out = forward_layer(net, li, times, policy)
            if layer.trainable:
                live = net.weights.live_slots(li)
                rows = net.weights.input_major(li)
                assert np.array_equal(live, np.flatnonzero(rows.any(axis=1)))
                assert np.array_equal(out, _full_window(net, li, times, policy))
                if _column_scoped(net, li, policy):
                    for got, grid in zip(out, times):
                        assert np.array_equal(got, column_reference(net, li, grid, policy))
            times = out

    def test_every_engine_gets_only_the_live_slots(self, monkeypatch):
        # the block scan, the lockstep and the event engine each get the
        # plan and the weight rows of the live slots; a layer with no dead
        # slot gets the layer's own plan and stored array
        seen = []
        for name in ("_column_times", "_event_times"):
            real = getattr(sim, name)
            monkeypatch.setattr(sim, name, lambda s, w, th, plan, *a, _f=real:
                                seen.append((w, plan)) or _f(s, w, th, plan, *a))
        rng = np.random.default_rng(8)
        spec = NetworkSpec(Shape3(2, 6, 6), [LayerSpec("conv", 3, 3, 4, 1, 0),
                                             LayerSpec("pool", 2, 2, 4, 2, 0),
                                             LayerSpec("fc", 2, 2, 5, 1, 0)])
        net = Network(spec)
        for i in (0, 2):
            net.install_column(i, rng.uniform(0.0, 1.0, spec.weight_shape(i)),
                               rng.uniform(0.5, 2.0, spec.layers[i].maps))
        stack = np.stack([random_grid(rng, spec.input_shape, n) for n in (20, 40)])
        policies = (NO_INHIBITION, InhibitionPolicy("wta"), InhibitionPolicy("soft", v_inh=0.4),
                    InhibitionPolicy("wta", scope="layer"))
        for dead in (np.zeros(18, bool), np.arange(18) == 4, np.arange(18) % 3 == 0):
            _kill_slots(net, 0, dead, rng)
            live, rows = net.weights.live_slots(0), net.weights.input_major(0)
            for policy in policies:
                seen.clear()
                forward_layer(net, 0, stack, policy)
                (w, plan), = seen
                assert np.array_equal(w, rows[live]) and plan.window == live.size
                full = sim.window_plan(spec.input_shape.astuple(), spec.layers[0])
                assert np.array_equal(plan.win_index, full.win_index[:, live])
                assert (w is rows and plan is full) == (not dead.any())

    @pytest.mark.parametrize("write", ["slot", "install"])
    def test_live_rows_are_stored_by_every_write(self, write, monkeypatch):
        # each write keeps the live slots' weight rows once, read-only, and
        # the engines read that stored array: no forward copies them
        seen = []
        real = sim._column_times
        monkeypatch.setattr(sim, "_column_times",
                            lambda s, w, *a: seen.append(w) or real(s, w, *a))
        rng = np.random.default_rng(9)
        spec = NetworkSpec(Shape3(2, 6, 6), [LayerSpec("conv", 3, 3, 4, 1, 0)])
        net = Network(spec)
        with pytest.raises(ValueError, match="layer 0 holds no weights"):
            net.weights.live_rows(0)
        net.thresholds[0] = rng.uniform(0.5, 2.0, 4)
        whole = rng.uniform(0.0, 1.0, (4, 18))
        stack = np.stack([random_grid(rng, spec.input_shape, n) for n in (20, 40)])
        for dead in (np.arange(18) % 3 == 0, np.zeros(18, bool), np.arange(18) < 17):
            weights = np.where(dead, 0.0, whole).reshape(spec.weight_shape(0))
            if write == "slot":
                net.weights[0] = weights
            else:
                net.install_column(0, weights, rng.uniform(0.5, 2.0, 4))
            rows = net.weights.live_rows(0)
            live = net.weights.live_slots(0)
            assert np.array_equal(live, np.flatnonzero(~dead))
            assert np.array_equal(rows, net.weights.input_major(0)[live])
            assert not rows.flags.writeable and net.weights.live_rows(0) is rows
            with pytest.raises(ValueError, match="read-only"):
                rows[0, 0] = 0.5
            seen.clear()
            forward_layer(net, 0, stack)
            (w,) = seen
            assert w is rows

    @pytest.mark.parametrize("kind", ["conv", "fc"])
    @pytest.mark.parametrize("policy", [
        NO_INHIBITION,
        InhibitionPolicy("soft", v_inh=0.5),
        InhibitionPolicy("wta"),
        InhibitionPolicy("soft", v_inh=0.5, scope="layer"),
        InhibitionPolicy("wta", scope="layer"),
    ])
    def test_all_zero_layer_is_silent_without_an_engine(self, kind, policy, monkeypatch):
        for name in ("_column_times", "_event_times"):
            monkeypatch.setattr(sim, name, lambda *a, _n=name: pytest.fail(f"{_n} ran"))
        rng = np.random.default_rng(7)
        side = 5 if kind == "fc" else 3
        spec = NetworkSpec(Shape3(2, 5, 5), [LayerSpec(kind, side, side, 3, 1, 0)])
        for w_min in (0.0, -0.5):
            net = Network(spec, w_min, 1.0)
            net.install_column(0, np.full(spec.weight_shape(0), 0.5), np.full(3, 0.01))
            _kill_slots(net, 0, slice(None), rng)
            assert net.weights.live_slots(0).size == 0
            stack = np.stack([random_grid(rng, spec.input_shape, n, tie_heavy=True)
                              for n in (0, 12, 50)])
            out = forward_layer(net, 0, stack, policy)
            assert out.shape == (3,) + spec.shapes[1].astuple() and np.isinf(out).all()
            grid = forward_layer(net, 0, stack[2], policy)
            assert grid.shape == spec.shapes[1].astuple() and np.isinf(grid).all()
            assert np.array_equal(grid, column_reference(net, 0, stack[2], NO_INHIBITION))


class TestWindowPlan:
    """One bounded cache holds every window plan, full or of live slots, and
    a plan's reverse map inverts its ``win_index``."""

    @pytest.mark.parametrize("in_shape, layer, slots", [
        ((2, 7, 7), LayerSpec("conv", 3, 3, 4, 2, 1), None),
        ((3, 4, 4), LayerSpec("fc", 4, 4, 5, 1, 0), None),
        ((2, 7, 7), LayerSpec("conv", 3, 3, 4, 2, 1), [0, 4, 5, 11, 17]),
        ((3, 4, 4), LayerSpec("fc", 4, 4, 5, 1, 0), [1, 2, 30, 47]),
    ])
    def test_reverse_inverts_win_index(self, in_shape, layer, slots):
        live = None if slots is None else np.array(slots, dtype=np.int64).tobytes()
        plan = sim.window_plan(in_shape, layer, live)
        full = sim.window_plan(in_shape, layer)
        assert np.array_equal(plan.win_index, full.win_index[:, slots or slice(None)])
        starts, rev_p, rev_k = plan.reverse
        sites = in_shape[0] * plan.pad_h * plan.pad_w
        assert starts.shape == (sites + 1,) and starts[-1] == plan.win_index.size
        for site in range(sites):
            want = [(p, k) for p in range(plan.positions) for k in range(plan.window)
                    if plan.win_index[p, k] == site]
            at = slice(starts[site], starts[site + 1])
            assert list(zip(rev_p[at].tolist(), rev_k[at].tolist())) == want, site

    def test_equal_arguments_share_one_cached_plan(self):
        layer = LayerSpec("conv", 3, 3, 4, 2, 1)
        full = sim.window_plan((2, 7, 7), layer)
        assert sim.window_plan((2, 7, 7), LayerSpec("conv", 3, 3, 4, 2, 1)) is full
        part = sim.window_plan((2, 7, 7), layer, np.array([0, 4, 5], dtype=np.int64).tobytes())
        live = np.flatnonzero(np.isin(np.arange(18), [0, 4, 5]))  # an equal index made anew
        again = sim.window_plan((2, 7, 7), layer, live.tobytes())
        assert again is part and part is not full and part.window == 3
        other = sim.window_plan((2, 7, 7), layer, np.array([0, 4, 6], dtype=np.int64).tobytes())
        assert other is not part
        assert sim.window_plan.cache_info().maxsize is not None  # bounded


class TestPackedKeys:
    """Window order from one sort of packed integer (rank, slot) keys."""

    @pytest.mark.parametrize("window", [1, 2, 3, 4, 5, 16, 17, 50, 400])
    def test_live_rows_order_is_a_stable_argsort_of_the_ranks(self, window):
        # each sample of the stack is one window; the first is all silent,
        # the second all firing, the rest hold tie-heavy ragged inputs
        rng = np.random.default_rng(window)
        shape = Shape3(1, 1, window)
        counts = [0, window] + rng.integers(0, window + 1, 6).tolist()
        flat = np.stack([random_grid(rng, shape, n, tie_heavy=True).ravel() for n in counts])
        wr, ranked_t = sim._event_ranks(flat, window)
        events = ranked_t.size
        shift = (window - 1).bit_length()
        assert events == sum(counts) and np.isfinite(ranked_t).all()
        # a silent entry holds the sentinel, the rank after every event
        assert wr.dtype == np.int32 and np.array_equal(wr == events << shift, np.isinf(flat))
        assert (wr & (2 ** shift - 1) == 0).all()  # ranks scaled past the slot bits
        plain = wr >> shift
        pos, order, ranks, count, live = sim._live_rows(wr, events, np.zeros((window, 1)),
                                                        np.ones(1), False)
        assert live.shape == (1, pos.size) and live.all()
        assert pos.tolist() == [i for i, n in enumerate(counts) if n]
        assert count.tolist() == [n for n in counts if n]
        assert order.shape == ranks.shape == (pos.size, window)
        for p, o, r, n in zip(pos, order, ranks, count):
            # a stable argsort puts the inputs in rank order, silent slots after them
            want = np.argsort(plain[p], kind="stable")[:n]
            assert o[:n].tolist() == want.tolist()
            assert r[:n].tolist() == plain[p, want].tolist()
            assert np.array_equal(ranked_t[r[:n]], flat[p, o[:n]])
            # past its inputs a window holds its silent slots, in window
            # order, and the rank after every event
            assert o[n:].tolist() == np.flatnonzero(np.isinf(flat[p])).tolist()
            assert (r[n:] == events).all()

    @pytest.mark.parametrize("window, events, dtype", [
        (4096, 524_286, np.int32), (4096, 524_287, np.int64),
        (2 ** 20, 2046, np.int32), (2 ** 20, 2047, np.int64),
        (2 ** 20 + 1, 1023, np.int32), (2 ** 20 + 1, 1024, np.int64),
    ])
    def test_keys_are_int32_while_a_key_plus_its_slot_fits(self, window, events, dtype):
        # (events << shift) + window < 2**31 keeps int32; one event more widens
        shift = (window - 1).bit_length()
        assert ((events << shift) + window < 2 ** 31) == (dtype is np.int32)
        rng = np.random.default_rng(events)
        flat = rng.random((4, events // 4 + 1))
        flat.ravel()[events:] = INF
        wr, ranked_t = sim._event_ranks(flat, window)
        assert wr.dtype == dtype and ranked_t.size == events
        order = sim._event_order(flat)
        assert np.array_equal(wr.ravel()[order], np.arange(events, dtype=np.int64) << shift)
        assert (wr.ravel()[events:] == events << shift).all()
        assert int(wr.max()) + window - 1 <= np.iinfo(dtype).max

    @pytest.mark.parametrize("policy", [NO_INHIBITION, InhibitionPolicy("soft", v_inh=2.0)])
    def test_int64_key_stack_equals_its_single_grids(self, policy, monkeypatch):
        # a 4,096-slot fc layer: 130 samples of about 4,055 events each pass
        # the int32 limit of 524,286 events, one sample alone stays far below
        rng = np.random.default_rng(130)
        spec = NetworkSpec(Shape3(16, 16, 16), [LayerSpec("fc", 16, 16, 6, 1, 0)])
        net = Network(spec)
        # each map's total input is about 2,000: the last map never fires
        net.install_column(0, rng.uniform(0.0, 1.0, spec.weight_shape(0)),
                           np.array([30.0, 400.0, 1000.0, 1700.0, 1990.0, 2500.0]))
        stack = rng.random((130, 16, 16, 16))
        stack[rng.random(stack.shape) < 0.01] = INF
        widths = []
        real = sim._event_ranks
        monkeypatch.setattr(sim, "_event_ranks",
                            lambda *a: widths.append((r := real(*a))[0].dtype) or r)
        whole = forward_layer(net, 0, stack, policy)
        assert widths == [np.int64] and np.isfinite(whole).any() and np.isinf(whole).any()
        widths.clear()
        for got, grid in zip(whole, stack):
            assert np.array_equal(got, forward_layer(net, 0, grid, policy))
        assert widths == [np.int32] * len(stack)
        for got, grid in zip(whole[:2], stack):
            assert np.array_equal(got, column_reference(net, 0, grid, policy))

    @pytest.mark.parametrize("n", [2, 300, 70_000])
    def test_event_order_keeps_each_sample_together(self, n):
        # one site a sample, in falling time: the time sort reverses the
        # stack, and the regroup (uint8, uint16, then a wider sample key)
        # must put every sample's event back in its place
        rng = np.random.default_rng(n)
        flat = np.linspace(1.0, 0.0, n)[:, None]
        flat[rng.random(n) < 0.25] = INF
        assert np.array_equal(sim._event_order(flat), np.flatnonzero(np.isfinite(flat)))

    def test_seventy_thousand_sample_stack_equals_its_single_grids(self):
        net = _one_layer(np.zeros((1, 1, 1)), np.array([1.0, 0.5]).reshape(2, 1, 1, 1),
                         np.array([0.75, 0.75]), kind="fc")
        rng = np.random.default_rng(70)
        stack = np.round(rng.random((70_000, 1, 1, 1)) * 64) / 64
        stack[rng.random(70_000) < 0.25] = INF
        # a sample's output depends on its one input time alone, so one
        # single grid per distinct time stands for every sample holding it
        times, which = np.unique(stack, return_inverse=True)
        assert times.size == 66 and np.isinf(times[-1])
        for policy in (NO_INHIBITION, InhibitionPolicy("soft", v_inh=0.5),
                       InhibitionPolicy("wta")):
            out = forward_layer(net, 0, stack, policy)
            singles = np.stack([forward_layer(net, 0, np.full((1, 1, 1), t), policy)
                                for t in times])
            assert np.array_equal(out, singles[which.ravel()])
            # map 0 fires at its one input, map 1 never
            assert np.array_equal(out[:, 0], stack[:, 0]) and np.isinf(out[:, 1]).all()


@st.composite
def _bound_cases(draw):
    """A drawn network with non-negative weights under bounds [0, 1], the same
    parameters under signed bounds, a stack of 1-3 grids and a policy."""
    net = drawn_network(lambda lo, hi: draw(st.integers(lo, hi - 1)),
                        lambda options: draw(st.sampled_from(options)),
                        np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).uniform)
    signed = Network(net.spec, draw(st.floats(-2.0, -1e-3)), 1.0)
    for i in net.spec.trainable_indices():
        signed.install_column(i, net.weights[i], net.thresholds[i])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    counts = draw(st.lists(st.integers(0, net.spec.input_shape.size), min_size=1, max_size=3))
    stack = np.stack([random_grid(rng, net.spec.input_shape, n, tie_heavy=True)
                      for n in counts])
    return net, signed, stack, draw(st.sampled_from(SWEEP_POLICIES))


class TestSignFromBounds:
    """The crossing engine reads the weight sign from the bounds, never the weights."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_bound_cases())
    def test_signed_bounds_with_non_negative_weights_change_nothing(self, case):
        net, signed, stack, policy = case
        _check_stack(signed, stack, policy)  # stack, single grids and the oracle
        for grid in stack:
            for got, want in zip(forward_times(signed, grid, policy),
                                 forward_times(net, grid, policy)):
                assert np.array_equal(got, want)

    def test_pre_filter_follows_the_lower_bound(self, monkeypatch):
        import spikeconv.simulate as sim

        flags = []
        real = sim._live_rows
        monkeypatch.setattr(sim, "_live_rows",
                            lambda *a: flags.append(a[4]) or real(*a))
        grid = np.full((1, 3, 3), 0.25)
        for w_min, nonneg in ((0.0, True), (0.5, True), (-0.1, False)):
            net = Network(NetworkSpec(Shape3(1, 3, 3), [LayerSpec("conv", 2, 2, 2, 1, 0)]),
                          w_min, 1.0)
            net.install_column(0, np.full((2, 1, 2, 2), 0.5), np.ones(2))
            flags.clear()
            assert forward_layer(net, 0, grid).tolist() == [[[0.25] * 2] * 2] * 2
            assert flags == [nonneg]
        # the bound runs only in the block scan of a layer of several
        # positions: never in the soft lockstep, nor where one window is the
        # whole input field (fc, or a conv with a 1x1 output)
        soft, wta = InhibitionPolicy("soft", v_inh=0.5), InhibitionPolicy("wta")
        cases = [(LayerSpec("conv", 2, 2, 2, 1, 0), wta, True),
                 (LayerSpec("conv", 2, 2, 2, 1, 0), soft, False),
                 (LayerSpec("fc", 3, 3, 2, 1, 0), NO_INHIBITION, False),
                 (LayerSpec("fc", 3, 3, 2, 1, 0), soft, False),
                 (LayerSpec("conv", 3, 3, 2, 1, 0), NO_INHIBITION, False)]
        for w_min, nonneg in ((0.0, True), (-0.1, False)):
            for layer, policy, bound in cases:
                net = Network(NetworkSpec(Shape3(1, 3, 3), [layer]), w_min, 1.0)
                net.install_column(0, np.full(net.spec.weight_shape(0), 0.5), np.ones(2))
                flags.clear()
                out = forward_layer(net, 0, grid, policy)
                assert flags == [nonneg and bound], (layer, policy)
                assert np.array_equal(out, column_reference(net, 0, grid, policy))
        # training's column holds no bounds: a column with one negative weight
        # and its non-negative twin each answer as the event engine does
        patch = np.array([[[0.1, 0.2], [0.3, 0.4]]])
        for low, fire_time in ((0.0, 0.3), (-0.1, 0.4)):
            weights = np.array([low, 0.5, 0.5, 0.5]).reshape(1, 1, 2, 2)
            res = column_response(patch, weights, np.ones(1))
            net = _one_layer(patch, weights, np.ones(1), kind="fc")
            out = forward_layer(net, 0, patch, InhibitionPolicy("wta"))
            assert (res.winner, res.fire_time) == (0, fire_time) == (0, out[0, 0, 0])


class TestForwardValidation:
    def test_shape_mismatch_rejected(self):
        net = Network(NetworkSpec(Shape3(2, 4, 4), [LayerSpec("conv", 2, 2, 2, 1, 0)]))
        net.weights[0] = np.ones((2, 2, 2, 2))
        net.thresholds[0] = np.ones(2)
        with pytest.raises(ValueError, match="input grid"):
            forward_times(net, np.full((2, 5, 5), np.inf))
        # forward_layer takes a stack; forward_times is one sample
        with pytest.raises(ValueError, match="input grid"):
            forward_layer(net, 0, np.full((3, 2, 5, 5), np.inf))
        with pytest.raises(ValueError, match="one"):
            forward_times(net, np.full((3, 2, 4, 4), np.inf))

    def test_rejects_non_finite(self):
        # +inf marks a silent site; NaN and -inf are no spike time at all
        net = Network(NetworkSpec(Shape3(2, 4, 4), [LayerSpec("conv", 2, 2, 2, 1, 0)]))
        net.weights[0] = np.ones((2, 2, 2, 2))
        net.thresholds[0] = np.ones(2)
        fc_times = np.array([[[0.0, 0.2, 0.5]]])
        fc = _one_layer(fc_times, np.ones((1, 1, 1, 3)), np.array([2.0]), kind="fc")
        for bad, name in ((np.nan, "NaN"), (-np.inf, "-inf")):
            grid = np.full((2, 4, 4), np.inf)
            grid[1, 2, 3] = bad
            with pytest.raises(ValueError, match=name):
                forward_times(net, grid)
            with pytest.raises(ValueError, match=f"^input spike times contain {name};"):
                forward_layer(net, 0, grid)
            stack = np.full((3, 2, 4, 4), np.inf)
            stack[2] = grid
            with pytest.raises(ValueError, match=f"^sample 2: input spike times contain {name};"):
                forward_layer(net, 0, stack)
            # every engine of a one-position layer, and training's column
            fc_times[0, 0, 0] = bad
            for policy in (NO_INHIBITION, InhibitionPolicy("wta"), InhibitionPolicy("soft")):
                with pytest.raises(ValueError, match=name):
                    forward_layer(fc, 0, fc_times, policy)
            with pytest.raises(ValueError, match=f"^input spike times contain {name};"):
                column_response(fc_times, np.ones((1, 1, 1, 3)), np.array([2.0]))
        # the same grid with the site silent runs
        assert forward_times(net, np.full((2, 4, 4), np.inf))[0].shape == (2, 3, 3)

    def test_policy_of_another_type_rejected(self):
        net = self._three_layers()
        for bad, name in (("soft", "str"), (None, "NoneType")):
            with pytest.raises(ValueError, match=f"^policy must be an InhibitionPolicy, got {name}$"):
                forward_times(net, np.zeros((1, 4, 4)), bad)
            with pytest.raises(ValueError, match=f"^policy must be an InhibitionPolicy, got {name}$"):
                forward_layer(net, 1, np.zeros((2, 2, 2)), bad)  # pooling, which ignores it

    def test_policy_of_another_type_rejected_over_no_sample(self):
        # refused when iteration starts, even over a dataset with no sample
        net = self._three_layers()
        for bad, name in (("soft", "str"), (None, "NoneType")):
            stacks = sim.forward_stacks(net, [], bad)
            with pytest.raises(ValueError, match=f"^policy must be an InhibitionPolicy, got {name}$"):
                next(stacks)

    @staticmethod
    def _three_layers():
        spec = NetworkSpec(Shape3(1, 4, 4), [LayerSpec("conv", 3, 3, 2, 1, 0),
                                             LayerSpec("pool", 2, 2, 2, 2, 0),
                                             LayerSpec("fc", 1, 1, 2, 1, 0)])
        net = Network(spec)
        for i in (0, 2):
            net.install_column(i, np.full(spec.weight_shape(i), 0.5), np.ones(2))
        return net

    def test_layer_index_past_the_last_rejected(self):
        with pytest.raises(ValueError, match=r"^layer index 9 out of range for 3 layers"):
            forward_layer(self._three_layers(), 9, np.zeros((1, 4, 4)))

    def test_negative_layer_index_rejected(self):
        # not read from the end: -1 would run the fc layer on the raw input
        with pytest.raises(ValueError, match=r"^layer index -1 out of range for 3 layers"):
            forward_layer(self._three_layers(), -1, np.zeros((1, 2, 1, 1)))

    def test_forward_stacks_empty_or_reversed_range_rejected(self):
        net, grids = self._three_layers(), np.zeros((2, 1, 4, 4))
        for start, stop in ((3, 1), (1, 1), (-1, 2), (3, None)):
            with pytest.raises(ValueError, match=rf"^layer range {start}:\w+ .* 3 layers"):
                next(sim.forward_stacks(net, grids, start=start, stop=stop))

    def test_forward_stacks_stop_past_the_last_rejected(self):
        net, grids = self._three_layers(), np.zeros((2, 1, 4, 4))
        with pytest.raises(ValueError, match=r"^layer range 0:9 .* 3 layers"):
            next(sim.forward_stacks(net, grids, stop=9))
        # the widest range runs every layer
        ((lo, outs),) = sim.forward_stacks(net, grids, start=0, stop=3)
        assert lo == 0 and [o.shape for o in outs] == [(2, 2, 2, 2), (2, 2, 1, 1), (2, 2, 1, 1)]

    def test_integer_grid_runs_as_its_float_copy(self):
        # an integer grid cannot hold the +inf of a silent or padded site, so
        # every entry reads it as float64 first
        rng = np.random.default_rng(3)
        spec = NetworkSpec(Shape3(2, 8, 8), [LayerSpec("conv", 3, 3, 4, 1, 1),
                                             LayerSpec("pool", 2, 2, 4, 2, 0),
                                             LayerSpec("fc", 4, 4, 5, 1, 0)])
        net = Network(spec)
        for i, th in ((0, 3.0), (2, 6.0)):
            net.weights[i] = rng.uniform(0.0, 1.0, spec.weight_shape(i))
            net.thresholds[i] = rng.uniform(1.0, th, spec.layers[i].maps)
        net.t_targets[2] = 1.0
        grids = rng.integers(0, 3, (3, 2, 8, 8))
        floats = grids.astype(np.float64)
        for policy in (NO_INHIBITION, InhibitionPolicy("wta"), InhibitionPolicy("soft")):
            for got, want in zip(forward_times(net, grids[0], policy),
                                 forward_times(net, floats[0], policy)):
                assert got.dtype == np.float64 and np.array_equal(got, want)
            assert np.array_equal(forward_layer(net, 0, grids, policy),
                                  forward_layer(net, 0, floats, policy))
            assert np.array_equal(extract_features(net, list(grids), 3.0, policy),
                                  extract_features(net, list(floats), 3.0, policy))
        padded = 0
        for seed in range(20):
            got = sample_patch(np.random.default_rng(seed), grids[0], spec.layers[0])
            want = sample_patch(np.random.default_rng(seed), floats[0], spec.layers[0])
            assert np.array_equal(got, want)
            padded += np.isinf(got).any()
        assert padded

    def test_nested_list_grid_runs_as_its_array(self):
        # every entry reads an array-like as float64, as forward_layer does
        rng = np.random.default_rng(5)
        spec = NetworkSpec(Shape3(2, 6, 6), [LayerSpec("conv", 3, 3, 3, 1, 0),
                                             LayerSpec("fc", 4, 4, 4, 1, 0)])
        net = Network(spec)
        for i, th in ((0, 2.0), (1, 4.0)):
            net.weights[i] = rng.uniform(0.0, 1.0, spec.weight_shape(i))
            net.thresholds[i] = rng.uniform(0.5, th, spec.layers[i].maps)
        grid = random_grid(rng, spec.input_shape, 40, tie_heavy=True)
        for policy in (NO_INHIBITION, InhibitionPolicy("wta"), InhibitionPolicy("soft")):
            for got, want in zip(forward_times(net, grid.tolist(), policy),
                                 forward_times(net, grid, policy)):
                assert np.array_equal(got, want)
        patch, w, th = grid[:, :3, :3], net.weights[0], net.thresholds[0]
        want = column_response(patch, w, th)
        assert want.winner is not None
        assert column_response(patch.tolist(), w.tolist(), th.tolist()) == want
        bad = grid.tolist()
        bad[1][2][3] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            forward_times(net, bad)
        with pytest.raises(ValueError, match="NaN"):
            column_response(np.array(bad)[:, 1:4, 2:5].tolist(), w.tolist(), th)

    def test_unready_network_rejected(self):
        net = Network(NetworkSpec(Shape3(2, 4, 4), [LayerSpec("conv", 2, 2, 2, 1, 0)]))
        with pytest.raises(ValueError, match="uninitialized"):
            forward_times(net, np.full((2, 4, 4), np.inf))
        with pytest.raises(ValueError, match="uninitialized"):
            forward_layer(net, 0, np.full((2, 4, 4), np.inf))

    def test_forward_stacks_names_the_dataset_sample(self, monkeypatch):
        # a bad grid in a later stack is named by its index in the dataset,
        # not in its stack
        net, grids = self._three_layers(), np.zeros((5, 1, 4, 4))
        monkeypatch.setattr(sim, "stack_size", lambda spec, start=0, stop=None: 2)
        for bad, name in ((np.nan, "NaN"), (-np.inf, "-inf")):
            grids[3, 0, 1, 1] = bad
            with pytest.raises(ValueError, match=f"^sample 3: input spike times contain {name};"):
                list(sim.forward_stacks(net, grids))


# the entries that take a layer index; the first two also take a range
_RANGE_ENTRIES = ("forward_stacks", "stack_size")
_TRAINABLE_ENTRIES = ("reconstruct_filter", "export_filters", "train_layer", "weight_shape")
_INDEX_ENTRIES = ("forward_layer", "install_column") + _RANGE_ENTRIES + _TRAINABLE_ENTRIES


def _bad_layer_indices():
    # the three-layer net of TestForwardValidation: conv, pool, fc
    for entry in _INDEX_ENTRIES:
        for bad in (3, -1, True, np.True_, 1.0):
            named = (f"layer range {bad}:3 is not a non-empty range of 3 layers"
                     if entry in _RANGE_ENTRIES else f"layer index {bad} out of range for 3 layers")
            yield pytest.param(entry, (bad,), named, id=f"{entry}-{bad!r}")
        if entry in _RANGE_ENTRIES:
            for start, stop in ((2, 1), (1, 1)):
                yield pytest.param(entry, (start, stop),
                                   f"layer range {start}:{stop} is not a non-empty range of 3 layers",
                                   id=f"{entry}-{start}:{stop}")
        if entry in _TRAINABLE_ENTRIES:
            yield pytest.param(entry, (1,), "layer 1 is pooling and has no weights",
                               id=f"{entry}-pooling")


class TestLayerIndices:
    """Every entry reads its layer index or range through ``NetworkSpec``, so
    each refuses a bad one, counted from the end, a bool, a float or a
    pooling layer where it needs weights, with the same ValueError."""

    @pytest.mark.parametrize("entry, args, named", _bad_layer_indices())
    def test_bad_index_refused_with_one_message(self, tmp_path, entry, args, named):
        net = TestForwardValidation._three_layers()
        spec, grids, model = net.spec, np.zeros((2, 1, 4, 4)), tmp_path / "m.spknet"
        save_network(model, net)
        before = network_bytes(net)
        call = {
            "forward_layer": lambda i: forward_layer(net, i, grids),
            "install_column": lambda i: net.install_column(i, np.full((2, 1, 3, 3), 0.5),
                                                           np.ones(2)),
            "forward_stacks": lambda *run: next(sim.forward_stacks(net, grids, NO_INHIBITION,
                                                                   *run)),
            "stack_size": lambda *run: sim.stack_size(spec, *run),
            "reconstruct_filter": lambda i: reconstruct_filter(net, i, 0),
            "export_filters": lambda i: cmd_export_filters(
                argparse.Namespace(model=str(model), layer=i, out=str(tmp_path / "f"))),
            "train_layer": lambda i: train_layer(spec, i, grids, TrainConfig(n_epoch=1),
                                                 RngStreams(0), 0.5),
            "weight_shape": spec.weight_shape,
        }[entry]
        with pytest.raises(ValueError, match="^" + re.escape(named) + "$"):
            call(*args)
        assert network_bytes(net) == before
        assert not (tmp_path / "f").exists()
