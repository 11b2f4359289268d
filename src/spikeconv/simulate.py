"""Event-driven forward simulation of IF convolution / pooling / FC stacks.

Semantics: spikes travel instantaneously, so each layer's complete output is
a function of its input spike train. Events are delivered one at a time in
total order (time, map, y, x); after each delivery, threshold crossings
resolve in neuron (map, y, x) order, with inhibition applied between
candidate firings. Every neuron fires at most once per sample and membrane
potentials start at zero for each sample.

Two engines compute a conv/fc layer. A competition that spans the layer
(winner-take-all, or soft inhibition with ``v_inh > 0``, at layer scope or
in a one-position layer, whose one column is the layer) runs on the event
engine; everything else runs on the crossing engine.

- The crossing engine serves no inhibition (soft inhibition with
  ``v_inh == 0`` is the same thing) and every competition confined to a
  column. Inside a window the global event order is the order of the
  sites' ranks in (time, site); a neuron's potential is a plain running
  sum of its weights in that order until a fire in its column. One scan
  finds the first crossings for inference and for training's single
  column alike. With non-negative weights it first drops every neuron
  whose total input, one matrix product widened by a margin larger than
  the rounding of any summation order, stays below its threshold: such a
  neuron can never fire, inhibition only lowers a non-negative potential,
  and the bound never decides a fire. The remaining neurons walk their
  sorted inputs in blocks of doubling size and leave at their first
  crossing; under a column competition a column leaves at its first. Each
  block's cumulative sum starts from the running sum the block before
  ended with, so every partial sum is the same sequence of float additions
  a single cumulative sum would make, and the outputs are bitwise those of
  delivering the events one by one. Without inhibition every crossing
  fires; under winner-take-all the lowest map crossing at its column's
  stop. Soft inhibition goes on from the stops in rounds: the crossing
  maps fire in map order, each lowering the whole column to
  ``max(v - v_inh, 0)`` before the next map is rechecked against its
  threshold, and the column's next round scans on from the following slot
  with the potentials it was left with. That carry is added to the first
  term of the next cumulative sum, the same float addition delivering
  that input one by one makes.
- The event engine delivers the events one by one exactly as stated
  above. An fc column fires dozens of times per sample under soft
  inhibition, and in rounds each fire would cost a scan of its own.

A pooling neuron fires at the earliest input time in its window.

Every window comes from the layer's cached ``window_plan``, which
inference, training's random patches and filter reconstruction all read;
``_event_order`` is the one sort of the (time, site) event order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .core import Shape3, check_fire_times
from .network import Network, LayerSpec, POOL

__all__ = [
    "InhibitionPolicy",
    "NO_INHIBITION",
    "forward_layer",
    "forward_times",
    "window_plan",
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
        if not 0 <= self.v_inh < np.inf:
            raise ValueError(f"v_inh must be finite and >= 0, got {self.v_inh}")


NO_INHIBITION = InhibitionPolicy("none")


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

    def pad_times(self, times: np.ndarray) -> np.ndarray:
        p = self.layer.padding
        if p == 0:
            return times
        return np.pad(times, ((0, 0), (p, p), (p, p)), constant_values=np.inf)

    @cached_property
    def reverse(self):
        """CSR site -> (position, window-slot) map for the event engine."""
        pk = np.repeat(np.arange(self.positions, dtype=np.int64), self.window)
        kk = np.tile(np.arange(self.window, dtype=np.int64), self.positions)
        flat = self.win_index.ravel()
        order = np.argsort(flat, kind="stable")
        sites = flat[order]
        d = 1 if self.layer.kind == POOL else self.in_shape.depth
        starts = np.searchsorted(sites, np.arange(d * self.pad_h * self.pad_w + 1))
        return starts, pk[order], kk[order]


@lru_cache(maxsize=64)
def window_plan(in_shape: tuple, layer: LayerSpec) -> _Plan:
    """Cached window plan of ``layer`` over a (depth, H, W) input field.

    Row ``p`` of ``win_index`` lists the sites of the +inf-padded input
    (``pad_times``) that output position ``p`` sees, in (map, y, x) order;
    a pooling plan indexes the sites of one map.
    """
    depth, height, width = in_shape  # a ValueError for a field that is not 3-D
    return _Plan(Shape3(depth, height, width), layer)


# ---------------------------------------------------------------------------
# layer forwards


def _pool_times(times_in: np.ndarray, plan: _Plan) -> np.ndarray:
    tp = plan.pad_times(times_in).reshape(times_in.shape[0], -1)
    out = tp[:, plan.win_index].min(axis=2)  # (D, P, K) windows
    return out.reshape((times_in.shape[0],) + (plan.out_shape.height, plan.out_shape.width))


def _event_order(flat: np.ndarray) -> np.ndarray:
    """The finite sites in (time, site) event order: ties keep (map, y, x) order."""
    sites = np.nonzero(np.isfinite(flat))[0]
    return sites[np.argsort(flat[sites], kind="stable")]


def _event_ranks(flat: np.ndarray):
    """Rank of every finite site in the event order, +inf if silent.

    Returns the ranks and the times in rank order.
    """
    sites = _event_order(flat)
    rank = np.full(flat.size, np.inf)
    rank[sites] = np.arange(sites.size)
    return rank, flat[sites]


def _live_rows(wr: np.ndarray, w2: np.ndarray, thresholds: np.ndarray):
    """The (map, position) rows of P windows that can fire, and their event order.

    wr: (P, K) event ranks of the window slots (``_event_ranks``); w2: (D, K)
    weights in window order. A position without input cannot fire. With
    non-negative weights neither can a row whose total input, widened past
    the rounding of any summation order, stays below its threshold:
    inhibition only lowers a non-negative potential, so this bound never
    decides a fire. Returns the positions ``pos`` holding a live row, their
    window slots in event order (``order``, one row per kept position) and
    input counts, and the rows ``rd``, ``rp`` in (map, position) order,
    ``rp`` indexing ``pos``.
    """
    finite = np.isfinite(wr)
    count = finite.sum(axis=1)
    live = count > 0
    if w2.min() >= 0.0:
        bound = (w2 @ finite.T.astype(np.float64)) * (1.0 + 4 * w2.shape[1] * _EPS)
        live = ~(bound < thresholds[:, None]) & live
    else:
        live = np.broadcast_to(live, (w2.shape[0], wr.shape[0]))
    pos = np.nonzero(live.any(axis=0))[0]
    rd, rp = np.nonzero(live[:, pos])
    count = count[pos]
    # finite ranks are distinct, so any sort gives the one event order
    order = np.argsort(wr[pos], axis=1)[:, :int(count.max(initial=0))]
    return pos, order, count, rd, rp


def _first_crossings(order: np.ndarray, count: np.ndarray, w2: np.ndarray,
                     rd: np.ndarray, rp: np.ndarray, th_r: np.ndarray, column: bool,
                     start=None, carry=None):
    """Each row's first threshold crossing over its position's inputs.

    order, count: window slots in event order and input counts of the
    positions ``rp`` indexes (``_live_rows``); w2: (D, K) weights. Row r adds
    map ``rd[r]``'s weights in event order from slot ``start[r]`` on (0 by
    default), its running sum starting from ``carry[r]`` (0), and stops at
    the first slot where the sum reaches ``th_r[r]``. With ``column`` the
    rows of a position move together and all stop at the position's
    earliest crossing. Returns each row's stop slot (-1 if it never stops)
    and, with ``column``, its potential there (-inf if it never stops).
    """
    window, width = w2.shape[1], order.shape[1]
    w_flat = w2.ravel()
    shifted = start is not None
    if shifted:
        at = rp * width + start  # flat index of each row's first slot in order
    n = count[rp] - start if shifted else count[rp]  # inputs left
    slot = np.full(rp.size, -1)
    v_stop = np.full(rp.size, -np.inf) if column else None
    row, base = np.arange(rp.size), rd * window
    kmax = int(n.max(initial=0))
    k0, size = 0, _BLOCK0
    while k0 < kmax:
        k1 = min(k0 + size, kmax)
        if shifted:  # slots past a row's last input read on into the next row's
            ws = order.take(at[:, None] + np.arange(k0, k1), mode="clip")
        else:
            ws = order[rp, k0:k1]
        ws += base[:, None]
        c = w_flat[ws]
        if carry is not None:
            c[:, 0] += carry  # the same addition delivering this input one by one makes
        v = np.cumsum(c, axis=1, out=c)
        crossed = v >= th_r[:, None]
        done = n <= k1
        if done.any():  # slots past a row's last input hold no input of its own
            crossed &= np.arange(k0, k1) < n[:, None]
        kk = crossed.argmax(axis=1)
        hit = crossed[np.arange(kk.size), kk]
        if hit.any():
            if column:  # every row of a position stops at its earliest crossing
                first = np.full(order.shape[0], k1 - k0)
                np.minimum.at(first, rp[hit], kk[hit])
                kk = first[rp]
                hit = kk < k1 - k0
                v_stop[row[hit]] = v[hit, kk[hit]]
            slot[row[hit]] = k0 + kk[hit]
            done |= hit
        keep = ~done
        if not keep.any():
            break
        row, rp, base, th_r, n = row[keep], rp[keep], base[keep], th_r[keep], n[keep]
        if shifted:
            at = at[keep]
        carry = v[keep, -1]
        k0, size = k1, 2 * size
    if shifted:
        stopped = slot >= 0
        slot[stopped] += start[stopped]
    return slot, v_stop


def _fire_times(ranked_t, wr, pos, order, rp, slot):
    """Times of the inputs at ``slot`` of the kept positions ``rp`` (``_live_rows``)."""
    return ranked_t[wr[pos[rp], order[rp, slot]].astype(np.int64)]


def _column_times(times_in, weights, thresholds, policy: InhibitionPolicy, plan: _Plan):
    """Crossing engine: no competition, or one confined to each column.

    One crossing scan per chunk, stopping each column at its earliest
    crossing under a competition; soft inhibition goes on from those stops
    in rounds (module docstring).
    """
    d_out = weights.shape[0]
    wta = policy.mode == "wta"
    v_inh = policy.v_inh if policy.mode == "soft" else 0.0
    rank, ranked_t = _event_ranks(plan.pad_times(times_in).ravel())
    w2 = weights.reshape(d_out, -1)
    out = np.full((d_out, plan.positions), np.inf)
    chunk = max(1, _CHUNK_ELEMS // max(1, d_out * plan.window))
    for lo in range(0, plan.positions, chunk):
        wr = rank[plan.win_index[lo:lo + chunk]]
        pos, order, count, rd, rp = _live_rows(wr, w2, thresholds)
        th_r = thresholds[rd]
        slot, v_stop = _first_crossings(order, count, w2, rd, rp, th_r, wta or v_inh > 0.0)
        if v_inh == 0.0:
            fire = slot >= 0
            if wta:  # of the maps crossing at a column's stop, the lowest fires
                fire &= v_stop >= th_r
                lowest = np.full(pos.size, d_out)
                np.minimum.at(lowest, rp[fire], rd[fire])
                fire &= rd == lowest[rp]
            rd, rp = rd[fire], rp[fire]
            out[rd, lo + pos[rp]] = _fire_times(ranked_t, wr, pos, order, rp, slot[fire])
            continue
        fired = out[:, lo + pos]
        # per column: potentials, effective thresholds (+inf once fired or
        # never live) and the slot the next round starts at
        v = np.zeros((d_out, pos.size))
        th = np.full((d_out, pos.size), np.inf)
        th[rd, rp] = th_r
        start = np.zeros(pos.size, dtype=np.int64)
        while True:
            stop = slot >= 0
            v[rd[stop], rp[stop]] = v_stop[stop]
            stop_at = np.full(pos.size, -1)
            stop_at[rp[stop]] = slot[stop]
            cols = np.nonzero(stop_at >= 0)[0]
            t = _fire_times(ranked_t, wr, pos, order, cols, stop_at[cols])
            vc, tc = v[:, cols], th[:, cols]
            cand = vc >= tc
            j = np.arange(cols.size)  # every stopped column has a crossing map
            while j.size:
                d = cand[:, j].argmax(axis=0)  # the lowest candidate fires
                fired[d, cols[j]] = t[j]
                tc[d, j] = np.inf
                vj = np.maximum(vc[:, j] - v_inh, 0.0)
                vc[:, j] = vj
                cj = cand[:, j] & (vj >= tc[:, j])  # recheck the rest
                cand[:, j] = cj
                j = j[cj.any(axis=0)]
            v[:, cols], th[:, cols] = vc, tc
            start[cols] = stop_at[cols] + 1
            cols = cols[start[cols] < count[cols]]
            rd, rp = np.nonzero(np.isfinite(th[:, cols]))
            if not rd.size:
                break
            rp = cols[rp]
            slot, v_stop = _first_crossings(order, count, w2, rd, rp, th[rd, rp], True,
                                            start[rp], v[rd, rp])
        out[:, lo + pos] = fired
    return out.reshape(d_out, plan.out_shape.height, plan.out_shape.width)


def _event_times(times_in, weights, thresholds, policy: InhibitionPolicy, plan: _Plan):
    """Event engine: competition across the whole layer, soft or winner-take-all.

    Delivers the input sites one at a time in (time, map, y, x) order; the
    crossings each delivery causes resolve in (map, y, x) order, every fire
    inhibiting the layer before the next crossing is checked.
    """
    d_out = weights.shape[0]
    shape = (d_out, plan.out_shape.height, plan.out_shape.width)
    w2 = weights.reshape(d_out, -1)
    starts, rev_p, rev_k = plan.reverse
    flat_t = plan.pad_times(times_in).ravel()

    v = np.zeros((d_out, plan.positions))
    # effective thresholds: +inf once a neuron has fired, so a fired neuron's
    # potential no longer matters
    th = np.repeat(thresholds[:, None], plan.positions, axis=1)
    out = np.full((d_out, plan.positions), np.inf)
    v_inh = policy.v_inh

    for s in _event_order(flat_t):
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
        for d, p in zip(cd.tolist(), pl[ci].tolist()):
            if v[d, p] < th[d, p]:
                continue  # inhibited below threshold by an earlier fire
            out[d, p] = flat_t[s]
            if policy.mode == "wta":
                return out.reshape(shape)  # the layer's one spike
            th[d, p] = np.inf
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
    plan = window_plan(in_shape, layer)
    if layer.kind == POOL:
        return _pool_times(times, plan)
    weights, thresholds = network.weights[index], network.thresholds[index]
    if weights is None or thresholds is None:
        raise ValueError(f"layer {index} has uninitialized parameters")
    if policy.layers == "output" and index != len(spec.layers) - 1:
        policy = NO_INHIBITION
    compete = policy.mode == "wta" or policy.mode == "soft" and policy.v_inh > 0.0
    # in a one-position layer the one column is the whole layer
    if compete and (policy.scope == "layer" or plan.positions == 1):
        return _event_times(times, weights, thresholds, policy, plan)
    return _column_times(times, weights, thresholds, policy, plan)


def forward_times(
    network: Network,
    input_times: np.ndarray,
    policy: InhibitionPolicy = NO_INHIBITION,
) -> list[np.ndarray]:
    """Run one sample through every layer; returns per-layer fire-time grids.

    ``input_times`` is a (depth, H, W) array of spike timestamps with +inf
    marking silent sites; NaN or -inf input is rejected. Inhibition applies
    to trainable layers only; pooling is a fixed passthrough.
    """
    check_fire_times(input_times)
    network.require_ready()
    grids = []
    times = input_times
    for i in range(len(network.spec.layers)):
        times = forward_layer(network, i, times, policy)
        grids.append(times)
    return grids


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
    w2 = weights.reshape(weights.shape[0], -1)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    _, order, count, rd, rp = _live_rows(rank[None, :], w2, thresholds)
    slot, v = _first_crossings(order, count, w2, rd, rp, thresholds[rd], True)
    crossing = np.nonzero(v >= thresholds[rd])[0]
    if crossing.size == 0:
        return ColumnResult(None, None)
    r = crossing[0]  # rows run in map order: the lowest crossing map wins
    return ColumnResult(int(rd[r]), float(ranked_t[int(rank[order[0, slot[r]]])]))
