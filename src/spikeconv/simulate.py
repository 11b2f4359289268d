"""Event-driven forward simulation of IF convolution / pooling / FC stacks.

Semantics: spikes travel instantaneously, so each layer's complete output is
a function of its input spike train. Events are delivered one at a time in
total order (time, map, y, x); after each delivery, threshold crossings
resolve in neuron (map, y, x) order, with inhibition applied between
candidate firings. Every neuron fires at most once per sample and membrane
potentials start at zero for each sample.

Two engines compute a conv/fc layer; the inhibition policy alone picks one:

- the crossing engine, when no fire changes another neuron's potential:
  no inhibition (or soft inhibition with ``v_inh == 0``, the same thing)
  and winner-take-all at column scope. Inside a window the global event
  order is the order of the sites' ranks in (time, site); each neuron fires
  at the first input where its running weighted sum reaches the threshold,
  and column WTA keeps the earliest crossing per column, the lowest map on
  ties. One scan finds these crossings for inference and for training's
  single column alike. With non-negative weights it first drops every
  neuron whose total input, one matrix product widened by a margin larger
  than the rounding of any summation order, stays below its threshold:
  such a neuron can never fire, and the bound never decides a fire. The
  remaining neurons walk their sorted inputs in blocks of doubling size
  and leave at their first crossing (under column WTA, a column leaves at
  its first). Each block's cumulative sum starts from the running sum the
  block before ended with, so every partial sum is the same sequence of
  float additions a single cumulative sum would make, and the outputs are
  bitwise those of delivering the events one by one.
- the event engine, when a fire lowers its competitors' potentials (soft
  inhibition with ``v_inh > 0``, either scope) or the competition spans the
  whole layer (winner-take-all at layer scope): it delivers the events one
  by one exactly as stated above.

A pooling neuron fires at the earliest input time in its window.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import SpikeEvent, Shape3
from .network import Network, LayerSpec, POOL

__all__ = [
    "InhibitionPolicy",
    "NO_INHIBITION",
    "NeuronState",
    "integrate",
    "reset_sample",
    "pool_forward",
    "PoolState",
    "forward_layer",
    "forward_times",
    "run_sample",
    "times_to_events",
    "events_to_times",
    "column_response",
    "ColumnResult",
]

# cap on elements of one (maps, positions, window) block of the crossing scan
_CHUNK_ELEMS = 4_000_000
_BLOCK0 = 16  # first block of the crossing scan; each next block doubles
_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class InhibitionPolicy:
    """Lateral competition applied in trainable layers.

    mode: "none", "soft" (subtract v_inh from competitors, floored at 0) or
    "wta" (first spike in a scope suppresses the rest for the sample).
    scope: "column" (the maps at one position) or "layer".
    layers: "all" applies the policy in every trainable layer, "output"
    only in the network's last layer (the one being read out).
    """

    mode: str = "none"
    v_inh: float = 1.0
    scope: str = "column"
    layers: str = "all"

    def __post_init__(self):
        if self.mode not in ("none", "soft", "wta"):
            raise ValueError(f"unknown inhibition mode {self.mode!r}")
        if self.scope not in ("column", "layer"):
            raise ValueError(f"unknown inhibition scope {self.scope!r}")
        if self.layers not in ("all", "output"):
            raise ValueError(f"unknown inhibition layer selector {self.layers!r}")
        if self.v_inh < 0:
            raise ValueError(f"v_inh must be >= 0, got {self.v_inh}")


NO_INHIBITION = InhibitionPolicy("none")


# ---------------------------------------------------------------------------
# scalar reference semantics (unit contracts; the engine vectorizes these)


@dataclass
class NeuronState:
    """Membrane potential, firing threshold and refractory flag of one IF unit."""

    potential: float = 0.0
    threshold: float = 1.0
    fired: bool = False


def integrate(state: NeuronState, voltage: float, time: float):
    """Accumulate one weighted spike; returns the fire time on crossing.

    A fired neuron is refractory until the end of the sample and ignores
    further input. On crossing, the potential resets to zero.
    """
    if state.fired:
        return None
    state.potential += voltage
    if state.potential >= state.threshold:
        state.potential = 0.0
        state.fired = True
        return time
    return None


def reset_sample(states) -> None:
    """Zero potentials and clear refractory flags; thresholds are untouched."""
    for s in states:
        s.potential = 0.0
        s.fired = False


class PoolState:
    """At-most-once bookkeeping for one pooling layer during a sample."""

    def __init__(self, layer: LayerSpec, in_shape: Shape3):
        self.layer = layer
        self.in_shape = in_shape
        self.out_shape = layer.out_shape(in_shape)
        self._fired: set = set()

    def reset(self) -> None:
        self._fired.clear()


def pool_forward(event: SpikeEvent, state: PoolState) -> list[SpikeEvent]:
    """Fan an input spike into the pooling neurons covering its site.

    Each covering neuron (same map) fires immediately at the event's
    timestamp the first time any spike lands in its receptive field, and
    absorbs everything afterwards.
    """
    lay, shp = state.layer, state.out_shape
    out = []
    for oy, ox in _covering_positions(
        event.y, event.x, lay.filter_h, lay.filter_w, lay.stride, lay.padding,
        shp.height, shp.width,
    ):
        key = (event.map, oy, ox)
        if key not in state._fired:
            state._fired.add(key)
            out.append(SpikeEvent(event.time, event.layer + 1, event.map, oy, ox))
    return out


def _covering_positions(y, x, fh, fw, stride, pad, out_h, out_w):
    ys = y + pad
    xs = x + pad
    oy_lo = max(0, -(-(ys - fh + 1) // stride))  # ceil((ys-fh+1)/stride)
    oy_hi = min(out_h - 1, ys // stride)
    ox_lo = max(0, -(-(xs - fw + 1) // stride))
    ox_hi = min(out_w - 1, xs // stride)
    for oy in range(oy_lo, oy_hi + 1):
        if not (0 <= ys - oy * stride < fh):
            continue
        for ox in range(ox_lo, ox_hi + 1):
            if 0 <= xs - ox * stride < fw:
                yield oy, ox


# ---------------------------------------------------------------------------
# window plans


class _Plan:
    """Precomputed gather indices mapping output windows to padded input sites."""

    def __init__(self, in_shape: Shape3, layer: LayerSpec):
        self.in_shape = in_shape
        self.layer = layer
        self.out_shape = layer.out_shape(in_shape)
        d, h, w = in_shape.astuple()
        p, s = layer.padding, layer.stride
        fh, fw = layer.filter_h, layer.filter_w
        self.pad_h, self.pad_w = h + 2 * p, w + 2 * p
        oh, ow = self.out_shape.height, self.out_shape.width
        self.positions = oh * ow

        ky = np.arange(fh, dtype=np.int64)
        kx = np.arange(fw, dtype=np.int64)
        if layer.kind == POOL:
            site = (ky[:, None] * self.pad_w + kx[None, :]).ravel()
        else:
            m = np.arange(d, dtype=np.int64)
            site = (
                (m[:, None, None] * self.pad_h + ky[None, :, None]) * self.pad_w
                + kx[None, None, :]
            ).ravel()
        oy = np.arange(oh, dtype=np.int64) * s
        ox = np.arange(ow, dtype=np.int64) * s
        origin = (oy[:, None] * self.pad_w + ox[None, :]).ravel()
        # (positions, window) indices; window enumeration order (m, ky, kx)
        # coincides with the global (map, y, x) site order inside one window
        self.win_index = origin[:, None] + site[None, :]
        self.window = self.win_index.shape[1]
        self._reverse = None

    def pad_times(self, times: np.ndarray) -> np.ndarray:
        p = self.layer.padding
        if p == 0:
            return times
        return np.pad(times, ((0, 0), (p, p), (p, p)), constant_values=np.inf)

    def reverse(self):
        """CSR site -> (position, window-slot) map for the event engine."""
        if self._reverse is None:
            pk = np.repeat(np.arange(self.positions, dtype=np.int64), self.window)
            kk = np.tile(np.arange(self.window, dtype=np.int64), self.positions)
            flat = self.win_index.ravel()
            order = np.argsort(flat, kind="stable")
            sites = flat[order]
            starts = np.searchsorted(sites, np.arange(self.pad_flat_size() + 1))
            self._reverse = (starts, pk[order], kk[order])
        return self._reverse

    def pad_flat_size(self) -> int:
        d = 1 if self.layer.kind == POOL else self.in_shape.depth
        return d * self.pad_h * self.pad_w


@lru_cache(maxsize=64)
def _plan_for(in_shape_t: tuple, layer: LayerSpec) -> _Plan:
    return _Plan(Shape3(*in_shape_t), layer)


def _window_times(times_in: np.ndarray, plan: _Plan) -> np.ndarray:
    tp = plan.pad_times(times_in)
    if plan.layer.kind == POOL:
        return tp.reshape(times_in.shape[0], -1)[:, plan.win_index]  # (D, P, K)
    return tp.ravel()[plan.win_index]  # (P, K)


# ---------------------------------------------------------------------------
# layer forwards


def _pool_times(times_in: np.ndarray, plan: _Plan) -> np.ndarray:
    wt = _window_times(times_in, plan)
    out = wt.min(axis=2)
    return out.reshape((times_in.shape[0],) + (plan.out_shape.height, plan.out_shape.width))


def _event_ranks(flat: np.ndarray):
    """Rank of every finite site in the (time, site) event order, +inf if silent.

    Returns the ranks and the times in rank order.
    """
    sites = np.nonzero(np.isfinite(flat))[0]
    sites = sites[np.argsort(flat[sites], kind="stable")]
    rank = np.full(flat.size, np.inf)
    rank[sites] = np.arange(sites.size)
    return rank, flat[sites]


def _first_crossings(wr: np.ndarray, ranked_t: np.ndarray, w2: np.ndarray,
                     thresholds: np.ndarray, wta: bool) -> np.ndarray:
    """Every neuron's first threshold crossing over its window's inputs.

    wr: (P, K) event ranks of the window slots of P positions and
    ranked_t the times in rank order (``_event_ranks``); w2: (D, K)
    weights in window order. Each (map, position) row adds its weights in
    rank order and fires at the first input where the running sum reaches
    its threshold. With ``wta`` only a position's earliest crossing fires,
    the lowest map on ties. Returns the (D, P) fire times, +inf if silent.
    """
    d_out, window = w2.shape
    out = np.full((d_out, wr.shape[0]), np.inf)
    finite = np.isfinite(wr)
    count = finite.sum(axis=1)
    live = count > 0
    if w2.min() >= 0.0:
        # a row's total input bounds its running sum; widened past the
        # rounding of any summation order, it only drops rows that cannot fire
        bound = (w2 @ finite.T.astype(np.float64)) * (1.0 + 4 * window * _EPS)
        live = ~(bound < thresholds[:, None]) & live
    else:
        live = np.broadcast_to(live, out.shape)
    pos = np.nonzero(live.any(axis=0))[0]
    if pos.size == 0:
        return out
    rd, rp = np.nonzero(live[:, pos])  # (map, position) order
    count = count[pos]
    kmax = int(count.max())
    wr = wr[pos]
    # finite ranks are distinct, so any sort gives the one event order
    order = np.argsort(wr, axis=1)[:, :kmax]

    w_flat = w2.ravel()
    base, th_r, carry = rd * window, thresholds[rd], None
    k0, size = 0, _BLOCK0
    while True:
        k1 = min(k0 + size, kmax)
        c = w_flat[base[:, None] + order[rp, k0:k1]]
        if carry is not None:
            c[:, 0] += carry  # the addition one cumsum over all slots makes here
        v = np.cumsum(c, axis=1)
        crossed = v >= th_r[:, None]
        n = count[rp]
        done = n <= k1
        if done.any():  # slots past a row's last input hold no input of its own
            crossed &= np.arange(k0, k1) < n[:, None]
        kk = crossed.argmax(axis=1)
        hit = crossed[np.arange(kk.size), kk]
        if hit.any():
            hd, hp, kk = rd[hit], rp[hit], k0 + kk[hit]
            if wta:
                o = np.lexsort((hd, kk, hp))
                first = np.ones(o.size, dtype=bool)
                first[1:] = hp[o[1:]] != hp[o[:-1]]
                hd, hp, kk = hd[o[first]], hp[o[first]], kk[o[first]]
                won = np.zeros(pos.size, dtype=bool)
                won[hp] = True
                done |= won[rp]
            else:
                done |= hit
            out[hd, pos[hp]] = ranked_t[wr[hp, order[hp, kk]].astype(np.int64)]
        if done.all():
            return out
        keep = ~done
        rd, rp, base, th_r = rd[keep], rp[keep], base[keep], th_r[keep]
        carry = v[keep, -1]
        k0, size = k1, 2 * size


def _conv_times(times_in, weights, thresholds, policy: InhibitionPolicy, plan: _Plan):
    """Crossing engine: no inhibition, or winner-take-all over each column."""
    d_out = weights.shape[0]
    rank, ranked_t = _event_ranks(plan.pad_times(times_in).ravel())
    w2 = weights.reshape(d_out, -1)
    out = np.empty((d_out, plan.positions))
    chunk = max(1, _CHUNK_ELEMS // max(1, d_out * plan.window))
    for lo in range(0, plan.positions, chunk):
        out[:, lo:lo + chunk] = _first_crossings(
            rank[plan.win_index[lo:lo + chunk]], ranked_t, w2, thresholds,
            policy.mode == "wta")
    return out.reshape(d_out, plan.out_shape.height, plan.out_shape.width)


def _event_times(times_in, weights, thresholds, policy: InhibitionPolicy, plan: _Plan):
    """Event engine: soft inhibition at either scope, or layer-wide winner-take-all.

    Delivers the input sites one at a time in (time, map, y, x) order; the
    crossings each delivery causes resolve in (map, y, x) order, every fire
    inhibiting its competitors before the next crossing is checked.
    """
    d_out = weights.shape[0]
    shape = (d_out, plan.out_shape.height, plan.out_shape.width)
    w2 = weights.reshape(d_out, -1)
    starts, rev_p, rev_k = plan.reverse()

    flat_t = plan.pad_times(times_in).ravel()
    sites = np.nonzero(np.isfinite(flat_t))[0]
    # stable over ascending site indices: ties in time keep (map, y, x) order
    sites = sites[np.argsort(flat_t[sites], kind="stable")]

    v = np.zeros((d_out, plan.positions))
    # effective thresholds: +inf once a neuron has fired, so a fired neuron's
    # potential no longer matters
    th = np.repeat(thresholds[:, None], plan.positions, axis=1)
    out = np.full((d_out, plan.positions), np.inf)
    v_inh = policy.v_inh
    column = policy.scope == "column"

    for s in sites:
        lo, hi = starts[s], starts[s + 1]
        if lo == hi:
            continue
        pl = rev_p[lo:hi]
        vp = v[:, pl] + w2[:, rev_k[lo:hi]]
        v[:, pl] = vp
        # reverse-map positions ascend, so nonzero yields (map, y, x) order
        cd, ci = np.nonzero(vp >= th[:, pl])
        if cd.size == 0:
            continue
        t = flat_t[s]
        for d, p in zip(cd.tolist(), pl[ci].tolist()):
            if v[d, p] < th[d, p]:
                continue  # inhibited below threshold by an earlier fire
            out[d, p] = t
            if policy.mode == "wta":
                return out.reshape(shape)  # the layer's one spike
            th[d, p] = np.inf
            if column:
                v[:, p] = np.maximum(v[:, p] - v_inh, 0.0)
            else:
                np.maximum(v - v_inh, 0.0, out=v)
    return out.reshape(shape)


# ---------------------------------------------------------------------------
# network-level driving


def forward_layer(
    network: Network,
    index: int,
    times: np.ndarray,
    policy: InhibitionPolicy = NO_INHIBITION,
) -> np.ndarray:
    """Fire-time grid of layer ``index`` for its (depth, H, W) input grid.

    Pooling ignores ``policy``. A policy with ``layers="output"`` applies
    only when ``index`` is the network's last layer; elsewhere the layer
    runs without inhibition.
    """
    spec = network.spec
    layer = spec.layers[index]
    in_shape = spec.shapes[index].astuple()
    if tuple(times.shape) != in_shape:
        raise ValueError(
            f"input grid shape {times.shape} does not match "
            f"layer {index} input {in_shape}"
        )
    plan = _plan_for(in_shape, layer)
    if layer.kind == POOL:
        return _pool_times(times, plan)
    weights, thresholds = network.weights[index], network.thresholds[index]
    if weights is None or thresholds is None:
        raise ValueError(f"layer {index} has uninitialized parameters")
    if policy.layers == "output" and index != len(spec.layers) - 1:
        policy = NO_INHIBITION
    if (policy.mode == "soft" and policy.v_inh > 0.0) or (
            policy.mode == "wta" and policy.scope == "layer"):
        return _event_times(times, weights, thresholds, policy, plan)
    return _conv_times(times, weights, thresholds, policy, plan)


def forward_times(
    network: Network,
    input_times: np.ndarray,
    policy: InhibitionPolicy = NO_INHIBITION,
) -> list[np.ndarray]:
    """Run one sample through every layer; returns per-layer fire-time grids.

    ``input_times`` is a (depth, H, W) array of spike timestamps with +inf
    marking silent sites. Inhibition applies to trainable layers only;
    pooling is a fixed passthrough.
    """
    network.require_ready()
    grids = []
    times = input_times
    for i in range(len(network.spec.layers)):
        times = forward_layer(network, i, times, policy)
        grids.append(times)
    return grids


def events_to_times(events, shape: Shape3, layer: int = 0) -> np.ndarray:
    """Validate spike events and pack them into a fire-time grid."""
    times = np.full(shape.astuple(), np.inf)
    for e in events:
        if e.layer != layer:
            raise ValueError(f"event targets layer {e.layer}, expected {layer}: {e}")
        if not (0 <= e.map < shape.depth and 0 <= e.y < shape.height and 0 <= e.x < shape.width):
            raise ValueError(
                f"event site (map={e.map}, y={e.y}, x={e.x}) outside field "
                f"{shape.astuple()}: {e}"
            )
        if e.voltage != 1.0:
            raise ValueError(f"input spikes are unit-voltage (synapses modulate): {e}")
        if np.isfinite(times[e.map, e.y, e.x]):
            raise ValueError(f"duplicate spike at site (map={e.map}, y={e.y}, x={e.x})")
        times[e.map, e.y, e.x] = e.time
    return times


def times_to_events(times: np.ndarray, layer: int) -> list[SpikeEvent]:
    events = []
    for m, y, x in zip(*np.nonzero(np.isfinite(times))):
        events.append(SpikeEvent(float(times[m, y, x]), layer, int(m), int(y), int(x)))
    events.sort()
    return events


def run_sample(
    network: Network,
    events,
    policy: InhibitionPolicy = NO_INHIBITION,
) -> list[list[SpikeEvent]]:
    """Simulate one sample; returns the spikes emitted by every layer."""
    times = events_to_times(events, network.spec.input_shape, layer=0)
    grids = forward_times(network, times, policy)
    return [times_to_events(g, i + 1) for i, g in enumerate(grids)]


# ---------------------------------------------------------------------------
# single-column simulation (training)


@dataclass
class ColumnResult:
    winner: int | None
    fire_time: float | None


def column_response(
    patch_times: np.ndarray, weights: np.ndarray, thresholds: np.ndarray
) -> ColumnResult:
    """WTA response of one column to a patch of its receptive field.

    ``patch_times`` is (in_maps, F_h, F_w) with +inf for silent sites;
    ``weights`` is (maps, in_maps, F_h, F_w). The winner is the earliest
    crossing, ties resolved by lowest map index.
    """
    rank, ranked_t = _event_ranks(patch_times.ravel())
    t = _first_crossings(rank[None, :], ranked_t, weights.reshape(weights.shape[0], -1),
                         np.asarray(thresholds, dtype=np.float64), wta=True)[:, 0]
    win = int(np.argmin(t))  # the column's one fire, if any
    if t[win] == np.inf:
        return ColumnResult(None, None)
    return ColumnResult(win, float(t[win]))
