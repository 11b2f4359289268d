"""Event-driven forward simulation of IF convolution / pooling / FC stacks.

Semantics: spikes travel instantaneously, so each layer's complete output is
a function of its input spike train. Events are delivered one at a time in
total order (time, map, y, x); after each delivery, threshold crossings
resolve in neuron (map, y, x) order, with inhibition applied between
candidate firings. Every neuron fires at most once per sample and membrane
potentials start at zero for each sample.

Two engines compute a conv/fc layer, and each takes a stack of samples, an
(N, depth, H, W) array; one grid is the stack of N = 1, so ``forward_times``
runs the same code as a batched caller. Samples never interact, and a
stack's outputs are bitwise each sample's alone. A competition at layer
scope (winner-take-all, or soft inhibition with ``v_inh > 0``) runs on the
event engine, and so does winner-take-all in a one-position layer, whose
one column is the layer; everything else runs on the crossing engine.
Every engine reads a layer's weights as the network stores them,
input-major (``Network.weights.input_major``): a (window, maps) array, one
row of every map's weight per window slot. It scans only the layer's live
slots (``Network.weights.live_slots``), those where some map's weight is
not zero: the window plan keeps those slots of every window
(``window_plan(in_shape, layer, slots)``) and the weights those rows. A
dead slot adds ±0.0 to every potential, which changes at most the sign of
a zero, and a zero of either sign lies below every (positive) threshold
and floors alike, so every crossing and fire time stays bitwise the same.
A layer whose every weight is zero is silent and enters no engine.

- The crossing engine serves no inhibition (soft inhibition with
  ``v_inh == 0`` is the same thing) and every other competition confined
  to a column, soft inhibition in a one-position layer included. Inside a
  window the global event order is the order of the sites' ranks in
  (time, site), found by one sort of the window's packed integer (rank,
  slot) keys (``_live_rows``), a silent site's rank being the event count
  of the stack. A neuron's potential is a plain running sum of
  its weights in that order until a fire in its column, map d's weight
  for window slot k being ``w_in[k, d]``. Without inhibition and under
  winner-take-all, one scan finds the first crossings. In a layer of
  several positions whose bounds admit no negative weight, it first drops
  every neuron whose total input, one matrix product widened by a margin
  larger than the rounding of any summation order, stays below its
  threshold: such a neuron can never fire, and the bound never decides a
  fire. Training's single column (``column_response``) walks every map
  through blocks of doubling size, with no bound, until the first input
  any map crosses at or the end of its inputs. The remaining neurons walk
  their sorted inputs in blocks that double while a block, its slots
  times its remaining rows, stays within ``_CHUNK_ELEMS`` elements, and
  leave at their first crossing; under winner-take-all a column leaves at
  its first, where its lowest crossing map fires: each crossing is keyed
  ``slot * maps + map``, so the one reduction that finds a column's
  earliest crossing also picks that map. Each block's running
  sums start from the sum the block before ended with, so every partial
  sum is the same sequence of float additions a single cumulative sum
  would make, and the outputs are bitwise those of delivering the events
  one by one. A block is slot-major, one row per input slot and one column
  per neuron, so its sums are one vector ``np.add`` per slot across all its
  neurons; ``np.cumsum`` down the slots makes the same additions one after
  another, latency-bound, and serves only blocks of fewer than
  ``_VECTOR_ROWS`` neurons, where the per-call cost of the adds would
  dominate. Slots past a row's last input hold the weights of its
  window's silent slots and are never masked: running sums only rise when
  no weight is negative (under signed weights the scan counts their
  running maximum instead), so the count of a row's sums below its
  threshold is its first crossing slot, and the row crossed if that slot
  is at most its last input. Soft
  inhibition steps every column of a chunk through its own inputs in
  lockstep instead: step k adds each column's k-th input weights to its
  maps, ``v = v + w``, the additions one-by-one delivery makes, one row of
  the input-major weights gathered per column; in each column the maps
  that then cross, its candidates, fire in map order, each lowering the
  column to ``max(v - v_inh, 0)`` before the next candidate is re-tested,
  and a fire takes the time of the column's k-th input. The floor lifts
  no potential to a (positive) threshold, so a map that did not cross at
  the step cannot fire before the next input: only the step's candidates
  are ever re-tested. Columns
  never interact, so their steps need not line up in time. The columns
  are kept in falling order of input count, so the columns with a k-th
  input are a leading run of the arrays; in a one-position layer the
  columns are the samples of the stack. A step's candidates are flat
  (column, map) indices, found by one ``nonzero`` of the leading rows:
  each column's lowest one fires and floors its column, and the step
  ends there unless a column holds a second candidate; then only the
  remaining candidates are re-tested, at their flat indices. A step with
  one column left (each step of a one-position layer's single grid, and
  the tail of a chunk whose longest column runs alone) and a step with a
  single candidate fire in place on that column's own row, one routine
  for both, instead of gathering: the same float operations. A lone
  column counts its candidates, and a single one fires and floors with
  no re-test.
  The lockstep reads only each window's event order and input count,
  never the scan's (map, position) row lists, and keeps every position of
  a chunk holding any input: one without input never steps. The positions
  of a stack are those of its samples one after the other, scanned in
  chunks of whole samples or of one sample's positions. A chunk counts
  the window of each of its positions plus, for the scan, the first block
  of each of its rows or, for the lockstep, one element per (position,
  map) of its state, and the count stays within ``_CHUNK_ELEMS``; every
  later block of the scan is capped by the rows it still holds. Each
  sample's event ranks are offset by the events of the samples before it,
  so ranks stay distinct while a window's order is its sample's own, and
  every neuron makes the float additions it makes alone.
- The event engine delivers each sample's events one by one exactly as
  stated above. Step k delivers the k-th event of every sample of the
  stack in one gather; each sample's crossings then resolve in (map, y, x)
  order with the recheck between fires, a fire inhibiting its own sample
  only, and under winner-take-all a sample leaves the stack at its one
  spike. A delivery gathers one row of the input-major weights for each
  (position, window slot) it reaches.

A pooling neuron fires at the earliest input time in its window.

Every window comes from the layer's cached ``window_plan``, which
inference, training's random patches and filter reconstruction all read;
a layer with dead slots reads the cached plan of its live slots.
``_event_order`` is the one sort of a stack's events, in (time, site) order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .core import Shape3, check_fire_times
from .network import Network, NetworkSpec, LayerSpec, POOL

__all__ = [
    "InhibitionPolicy",
    "NO_INHIBITION",
    "forward_layer",
    "forward_times",
    "forward_stacks",
    "stack_size",
    "window_plan",
    "column_response",
    "ColumnResult",
]

# cap on the elements one chunk of the crossing engine lays out at once: the
# window of each of its positions plus the first block of each of its rows,
# or under soft inhibition one element per (position, map) of its state
_CHUNK_ELEMS = 200_000
# first block of the crossing scan; each next block doubles, in the block
# scan up to _CHUNK_ELEMS elements over the rows it still holds
_BLOCK0 = 16
# a slot-major block of at least this many neurons takes its running sums as
# one vector np.add per slot, one call each; a narrower one takes one
# np.cumsum down the slots, one call whose additions run one after another
# (about 4 ns each). In alternating pairs on a 2-CPU host the per-slot adds
# won 10 of 10 at 256 neurons and at most 2 of 10 at 192, over blocks of
# 16 and of 64 slots
_VECTOR_ROWS = 256
_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class InhibitionPolicy:
    """Lateral competition applied in trainable layers.

    mode: "none", "soft" (subtract v_inh from competitors, floored at 0) or
    "wta" (first spike in a scope suppresses the rest for the sample).
    scope: "column" (the maps at one position) or "layer".
    layers: "all" applies the policy in every trainable layer, "output"
    only in the network's last layer (the one being read out). Pooling
    ignores policies, so "output" on a network that ends in pooling
    inhibits nowhere.
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
    """Precomputed gather indices mapping output windows to padded input sites;
    with ``slots``, only those window slots of every window, in window order."""

    def __init__(self, in_shape: Shape3, layer: LayerSpec, slots: np.ndarray | None = None):
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
        if slots is not None:
            self.win_index = self.win_index.take(slots, axis=1)
        self.window = self.win_index.shape[1]

    def pad_times(self, times: np.ndarray) -> np.ndarray:
        p = self.layer.padding
        if p == 0:
            return times
        pad = ((0, 0),) * (times.ndim - 2) + ((p, p), (p, p))
        return np.pad(times, pad, constant_values=np.inf)

    def flat_stack(self, times: np.ndarray) -> np.ndarray:
        """The padded (N, depth, H, W) stack with one row of sites per sample."""
        return self.pad_times(times).reshape(len(times), times.shape[1] * self.pad_h * self.pad_w)

    @cached_property
    def reverse(self):
        """CSR site -> (position, window-slot) map of a conv or fc plan, for
        the event engine."""
        flat = self.win_index.ravel()
        order = np.argsort(flat, kind="stable")
        sites = self.in_shape.depth * self.pad_h * self.pad_w
        starts = np.searchsorted(flat[order], np.arange(sites + 1))
        return (starts, *np.divmod(order, self.window))


@lru_cache(maxsize=64)
def window_plan(in_shape: tuple, layer: LayerSpec, slots: bytes | None = None) -> _Plan:
    """Cached window plan of ``layer`` over a (depth, H, W) input field.

    Row ``p`` of ``win_index`` lists the sites of the +inf-padded input
    (``pad_times``) that output position ``p`` sees, in (map, y, x) order;
    a pooling plan indexes the sites of one map. With ``slots``, the bytes
    of ascending int64 window slot indices, the plan keeps only those slots
    of every window, and its own ``reverse``.
    """
    depth, height, width = in_shape  # a ValueError for a field that is not 3-D
    live = None if slots is None else np.frombuffer(slots, dtype=np.int64)
    return _Plan(Shape3(depth, height, width), layer, live)


# ---------------------------------------------------------------------------
# layer forwards


def _pool_times(times_in: np.ndarray, plan: _Plan) -> np.ndarray:
    n, d = times_in.shape[:2]
    tp = plan.flat_stack(times_in).reshape(n, d, plan.pad_h * plan.pad_w)
    out = tp[:, :, plan.win_index].min(axis=3)  # (N, D, P, K) windows
    return out.reshape(n, d, plan.out_shape.height, plan.out_shape.width)


def _event_order(flat: np.ndarray) -> np.ndarray:
    """Flat indices of the finite entries of an (N, S) stack in event order.

    Sample by sample; within a sample in (time, site) order, ties keeping
    (map, y, x) order. A stack regroups by a stable sort of sample indices in
    the narrowest unsigned type, a radix sort up to 65,536 samples.
    """
    times = flat.ravel()
    f = np.nonzero(np.isfinite(times))[0]
    f = f[np.argsort(times[f], kind="stable")]
    n = flat.shape[0]
    if n > 1:  # regroup sample by sample; a stable sort keeps each one's order
        f = f[np.argsort((f // flat.shape[1]).astype(np.min_scalar_type(n - 1)), kind="stable")]
    return f


def _event_ranks(flat: np.ndarray, window: int):
    """Integer event key of every entry of an (N, S) stack: a finite entry's
    rank in its sample's event order times ``2**shift``, the bit length of
    ``window - 1``, so a window slot fits the low bits; a silent entry the
    sentinel ``events << shift``, past every rank.

    Each sample's ranks start where the sample before it ended, so ranks are
    distinct across the stack and index the returned times in rank order.
    The keys are int32 while ``(events << shift) + window < 2**31``, so a
    key plus its slot fits (at windows of up to 4,096 slots, every stack
    below 524,287 events), and int64 otherwise.
    """
    f = _event_order(flat)
    shift = (window - 1).bit_length()
    sentinel = f.size << shift
    dtype = np.int32 if sentinel + window < 2 ** 31 else np.int64
    rank = np.full(flat.shape, sentinel, dtype=dtype)
    rank.ravel()[f] = np.arange(0, sentinel, 1 << shift, dtype=dtype)
    return rank, flat.ravel()[f]


def _live_rows(wr: np.ndarray, events: int, w_in: np.ndarray, thresholds: np.ndarray,
               bound: bool, scan: bool = True):
    """The windows of P positions in event order, and the (map, position)
    rows of the block scan.

    wr: (P, K) event keys of the window slots (``_event_ranks``) of a stack
    of ``events`` events; w_in: the (K, D) input-major weights. With
    ``scan`` only positions holding a live row are kept: a position without
    input cannot fire, and with ``bound`` (the block scan of a layer of
    several positions, where no weight is negative) neither can a row whose
    total input, ``finite @ w_in`` (taken transposed, one row per map)
    widened past the rounding of any summation order, stays below its
    threshold; the bound never decides a fire. Without ``scan`` (the
    lockstep) every position is kept, in place in ``wr``; one without input
    never steps. One ``np.sort`` of a kept window's keys, key plus slot,
    gives its event order: every key is distinct, so any sort gives the
    same keys, the inputs by rank and then the silent slots in window order.
    Returns the kept positions ``pos``; their keys' low and high bits in
    that order, cut to the most inputs a window holds, ``order`` and
    ``ranks`` (silent: the slot, rank ``events``); their input counts; and
    with ``scan`` the (D, len(pos)) mask of their live rows, (map, position)
    in C order. A chunk without any input keeps no position.
    """
    shift = (wr.shape[1] - 1).bit_length()
    sentinel = events << shift
    if not scan:
        pos, live, keys = np.arange(len(wr)), None, wr
    elif bound:  # a window without input has bound 0, below every (positive) threshold
        finite = wr < sentinel
        total = (w_in.T @ finite.T.astype(np.float64)) * (1.0 + 4 * len(w_in) * _EPS)
        live = ~(total < thresholds[:, None])
        pos = np.nonzero(live.any(axis=0))[0]
        live, keys = live[:, pos], wr[pos]
    else:  # every map of a position with input
        pos = np.nonzero((wr < sentinel).any(axis=1))[0]
        live, keys = np.broadcast_to(True, (w_in.shape[1], pos.size)), wr[pos]
    keys += np.arange(wr.shape[1], dtype=wr.dtype)  # each slot's index in the low bits
    keys.sort(axis=1)
    # each window's input count: a byte per test, summed in a signed type that
    # holds the window (int16, cheaper to add than intp, below 2**15 slots)
    below = np.less(keys, sentinel).view(np.int8)
    count = below.sum(axis=1, dtype=np.int16 if wr.shape[1] < 2 ** 15 else np.intp)
    width = int(count.max(initial=0))
    if not width:
        pos, count = pos[:0], count[:0]
    keys = keys[:pos.size, :width]
    return pos, keys & ((1 << shift) - 1), keys >> shift, count, live


def _running(ufunc, v: np.ndarray) -> np.ndarray:
    """Running ``ufunc`` (``np.add``: the sums) down the slots of a slot-major
    (slots, neurons) block, in place, each step the one float operation
    delivering the slot's input one by one makes."""
    if v.shape[1] < _VECTOR_ROWS:
        ufunc.accumulate(v, axis=0, out=v)
    else:
        rows = list(v)
        for before, row in zip(rows, rows[1:]):
            ufunc(before, row, out=row)
    return v


def _first_crossings(order: np.ndarray, count: np.ndarray, w_in: np.ndarray,
                     rd: np.ndarray, rp: np.ndarray, th_r: np.ndarray, column: bool,
                     nonneg: bool):
    """The slot at which each row fires, -1 if it never does.

    order, count: window slots in event order and input counts of the
    positions ``rp`` indexes (``_live_rows``); w_in: (K, D) input-major
    weights. Row r adds map ``rd[r]``'s weights, ``w_in[slot, rd[r]]``, in
    event order and fires at the first slot where the running sum reaches
    ``th_r[r]``. With ``column`` the rows of a position stop together at the
    position's earliest crossing, and only its lowest crossing map fires:
    one ``np.minimum.at`` over the keys ``slot * maps + map`` of a block's
    crossings finds both. ``nonneg``: no weight is negative.

    Each block is slot-major, one row per input slot and one column per
    neuron row: ``take`` from the flat input-major weights at ``slot * maps
    + map``, its slots a row slice of ``order`` laid out step by step. Slots
    past a row's last input hold its window's silent slots' weights, so the
    running sums (the running maximum of them when a weight may be
    negative, which rises as they do) are only tested against the
    threshold: a row's count of them below its threshold, one byte a test
    summed in the narrowest type that holds the block's length, is its
    first crossing slot in the block, and the row crossed there if that
    slot is at most its last input. A row's state (row, position, map,
    inputs left) is one int array, compacted by one ``take`` a block.
    """
    maps, w_flat = w_in.shape[1], w_in.ravel()
    slot = np.full(rp.size, -1)
    state = np.array((np.arange(rp.size), rp, rd, count[rp]))
    at = np.multiply(order.T, maps, dtype=np.intp, order="C")  # row k: k-th slots' rows in w_flat
    carry = None
    k0, size = 0, _BLOCK0
    while k0 < len(at):
        k1 = min(k0 + size, len(at))
        row, rp, rd, n = state
        v = at[k0:k1].take(rp, axis=1)  # row k: each row's (k0 + k)-th slot
        v += rd
        v = w_flat.take(v)
        if carry is not None:
            v[0] += carry  # the same addition delivering this input one by one makes
        _running(np.add, v)
        top = v if nonneg else _running(np.maximum, v.copy())
        below = np.less(top, th_r).view(np.uint8)
        kk = below.sum(axis=0, dtype=np.min_scalar_type(k1 - k0)).astype(np.intp)
        hit = kk < np.minimum(n, k1) - k0  # the crossing is at one of the row's inputs
        done = n <= k1
        if hit.any():
            if column:  # a position stops at its earliest crossing; its lowest map fires
                key = kk * maps + rd
                first = np.full(order.shape[0], (k1 - k0) * maps)
                np.minimum.at(first, rp[hit], key[hit])
                first = first.take(rp)
                done |= first < (k1 - k0) * maps
                hit &= key == first
            slot[row[hit]] = k0 + kk[hit]
            done |= hit
        keep = np.flatnonzero(~done)
        if not keep.size:
            break
        state, th_r, carry = state.take(keep, axis=1), th_r.take(keep), v[-1].take(keep)
        # the next block doubles while its rows' slots stay within the chunk cap
        k0, size = k1, min(2 * size, max(_BLOCK0, _CHUNK_ELEMS // keep.size))
    return slot


def _fire_row(v, th, crossed, fired, d, k, v_inh, more=False):
    """Fire map ``d`` of one column at step ``k`` and floor the column to
    ``max(v - v_inh, 0)``. With ``more``, ``crossed`` marks the maps that
    crossed at this step, ``d`` the lowest of them: each later one is
    re-tested after the floors before it and fires in map order while it
    still crosses. v, th, crossed, fired: that column's rows of the
    lockstep's state, basic-indexed views written in place."""
    rest = crossed.nonzero()[0][1:] if more else ()
    while True:
        fired[d] = k
        th[d] = np.inf
        v -= v_inh
        np.maximum(v, 0.0, out=v)
        if len(rest):
            rest = rest[v.take(rest) >= th.take(rest)]
        if not len(rest):
            return
        d, rest = rest[0], rest[1:]


def _soft_columns(order: np.ndarray, count: np.ndarray, w_in: np.ndarray,
                  thresholds: np.ndarray, v_inh: float) -> np.ndarray:
    """Soft column inhibition, every column in lockstep.

    order, count: window slots in event order and input counts of C columns
    (``_live_rows``), the positions of one or more samples; w_in: (K, D)
    input-major weights (``Network.weights.input_major``), one row of map
    weights per window slot; thresholds: (D,), raised to +inf in a column
    once the map fires there. Step k adds to every column the weights of
    its own k-th input; in each column the maps that then cross, its
    candidates, fire in map order, each lowering the column to
    ``max(v - v_inh, 0)`` before the next candidate is re-tested. That
    floor lifts no potential to a (positive) threshold, so a map that did
    not cross at the step cannot fire before the next input, and only the
    candidates are ever re-tested. A step's candidates are flat (column,
    map) indices, one ``nonzero``; each column's lowest one fires through
    flat writes and floors its column, and only a column with a second
    candidate makes the step go on. A step with one column left, or with
    one candidate, fires in place on that column's row (``_fire_row``), the
    float operations of the gathered path. Returns the (C, D) slot each
    neuron fired at, -1 if it never did.
    """
    maps = thresholds.size
    # columns by falling input count, so the columns with a k-th input lead
    by_count = np.argsort(-count, kind="stable")
    # row k: each column's k-th slot, widened once for the steps' takes
    steps = np.ascontiguousarray(order[by_count].T, dtype=np.intp)
    active = np.searchsorted(-count[by_count], -np.arange(steps.shape[0]))
    th = np.repeat(thresholds[None, :], count.size, axis=0)
    v = np.zeros(th.shape)
    fired = np.full(th.shape, -1)
    crossed = np.empty(th.shape, dtype=bool)
    # the first column's rows (none in a chunk without input), and the flat state
    v0, th0, crossed0, fired0 = (a[:1].ravel() for a in (v, th, crossed, fired))
    v_flat, th_flat, fired_flat = v.ravel(), th.ravel(), fired.ravel()
    for k, m in enumerate(active.tolist()):
        if m == 1:  # a lone column steps on its own rows, making the same float operations
            v0 += w_in[steps[k, 0]]
            c = np.count_nonzero(np.greater_equal(v0, th0, out=crossed0))
            if c:
                _fire_row(v0, th0, crossed0, fired0, crossed0.argmax(), k, v_inh, c > 1)
            continue
        vm = v[:m]
        vm += w_in.take(steps[k, :m], axis=0)
        # the crossing rows lead the state, so their flat indices are the state's
        f = np.greater_equal(vm, th[:m], out=crossed[:m]).ravel().nonzero()[0]
        if f.size <= 1:
            if f.size:
                j, d = divmod(int(f[0]), maps)
                _fire_row(v[j], th[j], crossed[j], fired[j], d, k, v_inh)
            continue
        while f.size:
            j = f // maps
            first = np.empty(j.size, dtype=bool)  # each column's lowest candidate fires first
            first[0] = True
            np.not_equal(j[1:], j[:-1], out=first[1:])
            later = None
            if np.count_nonzero(first) < f.size:  # a column holds a second candidate
                later, j, f = f[~first], j[first], f[first]
            fired_flat[f] = k
            th_flat[f] = np.inf
            vj = v[j]
            vj -= v_inh
            v[j] = np.maximum(vj, 0.0, out=vj)
            if later is None:
                break
            f = later[v_flat.take(later) >= th_flat.take(later)]  # re-test the later candidates
    out = np.empty_like(fired)
    out[by_count] = fired
    return out


def _column_times(times_in, w_in, thresholds, plan: _Plan, wta: bool, v_inh: float,
                  nonneg: bool):
    """Crossing engine: no competition, or one confined to each column.

    The N samples of the stack are one layer of N x P positions, sample by
    sample. One crossing scan per chunk of them, stopping each column at its
    earliest crossing under winner-take-all (``wta``), where only its lowest
    crossing map fires; soft inhibition (``v_inh > 0``) steps every column
    of a chunk through its inputs in lockstep (module docstring).
    Both read ``w_in``, the layer's (window, maps) input-major weights
    (``Network.weights.input_major``). ``nonneg``: no weight is negative.
    """
    n, d_out, positions = times_in.shape[0], w_in.shape[1], plan.positions
    bound = nonneg and v_inh == 0.0 and positions > 1
    rank, ranked_t = _event_ranks(plan.flat_stack(times_in), plan.window)
    out = np.full((d_out, n * positions), np.inf)
    # a chunk lays out its windows plus the first block of each of its rows
    # for the scan, or its (position, map) state for the lockstep
    chunk = max(1, _CHUNK_ELEMS // (plan.window + d_out * (_BLOCK0 if v_inh == 0.0 else 1)))
    # a chunk holds whole samples, or a run of one sample's positions
    samples, span = max(1, chunk // positions), min(chunk, positions)
    for s0, p0 in itertools.product(range(0, n, samples), range(0, positions, span)):
        lo = s0 * positions + p0
        wr = rank[s0:s0 + samples].take(plan.win_index[p0:p0 + span], axis=1)
        wr = wr.reshape(-1, plan.window)
        pos, order, ranks, count, live = _live_rows(wr, ranked_t.size, w_in, thresholds, bound,
                                                    v_inh == 0.0)
        if v_inh > 0.0:
            slot = _soft_columns(order, count, w_in, thresholds, v_inh).ravel()
            f = np.flatnonzero(slot >= 0)  # the fired neurons, (position, map) in C order
            rp, rd = np.divmod(f, d_out)
            slot = slot[f]
        else:
            rp = np.flatnonzero(live)  # the scan's rows, in (map, position) order
            rd = rp // pos.size
            rp -= rd * pos.size
            slot = _first_crossings(order, count, w_in, rd, rp, thresholds[rd], wta, nonneg)
            fire = slot >= 0
            rd, rp, slot = rd[fire], rp[fire], slot[fire]
        # the times of the inputs at slot, written through flat indices
        out.ravel()[rd * out.shape[1] + (lo + pos[rp])] = ranked_t[ranks[rp, slot]]
    out = out.reshape(d_out, n, plan.out_shape.height, plan.out_shape.width)
    return np.ascontiguousarray(out.transpose(1, 0, 2, 3))


def _event_times(times_in, w_in, thresholds, plan: _Plan, wta: bool, v_inh: float):
    """Event engine: competition across the whole layer, winner-take-all
    (``wta``) or soft (``v_inh > 0``).

    Each sample of the stack gets its input sites one at a time in (time,
    map, y, x) order; the crossings each delivery causes resolve in (map, y,
    x) order, every fire inhibiting the sample's layer before the next
    crossing is checked. Step k delivers the k-th event of every sample that
    has one in one gather; samples never interact. The deliveries are laid
    out for blocks of steps of doubling size, so a stack that winner-take-all
    settles early lays out little. ``w_in``: the layer's (window, maps)
    input-major weights (``Network.weights.input_major``), so a delivery
    gathers one row per (position, slot) it reaches.
    """
    n, d_out, positions = times_in.shape[0], w_in.shape[1], plan.positions
    starts, rev_p, rev_k = plan.reverse
    flat = plan.flat_stack(times_in)
    f = _event_order(flat)
    sample = f // flat.shape[1]
    count = np.bincount(sample, minlength=n)
    step = np.arange(f.size) - (np.cumsum(count) - count)[sample]
    f = f[np.argsort(step, kind="stable")]  # step by step, each in sample order
    delivered = np.cumsum(np.bincount(step))  # events delivered once step k is over

    # one row of potentials per (sample, position), with effective thresholds
    # (+inf once a neuron has fired, so its potential no longer matters)
    v = np.zeros((n * positions, d_out))
    th = np.repeat(thresholds[None, :], v.shape[0], axis=0)
    out = np.full(v.shape, np.inf)
    won = np.zeros(n, dtype=bool)  # under WTA a sample leaves at its one spike
    k0, size = 0, _BLOCK0
    while k0 < delivered.size and not won.all():
        k1 = min(k0 + size, delivered.size)
        first = delivered[k0 - 1] if k0 else 0
        events = f[first:delivered[k1 - 1]]
        sample, site = np.divmod(events, flat.shape[1])
        lo = starts[site]
        fan = starts[site + 1] - lo
        ends = np.cumsum(fan)  # each event's (position, slot) deliveries end here
        at = np.repeat(lo - ends + fan, fan) + np.arange(ends[-1])
        row = np.repeat(sample, fan) * positions + rev_p[at]
        slot, when = rev_k[at], np.repeat(flat.ravel()[events], fan)
        a = 0
        for b in ends[delivered[k0:k1] - first - 1].tolist():  # step by step
            at, a = slice(a, b), b
            if wta:
                at = at.start + np.flatnonzero(~won[row[at] // positions])
            r = row[at]
            vp = v[r] + w_in[slot[at]]
            v[r] = vp
            ce, cd = np.nonzero(vp >= th[r])
            if ce.size == 0:
                continue
            # each sample's crossings in (map, y, x) order; with one position
            # a sample's crossings already come in map order
            cr, ct = r[ce], when[at][ce]
            if positions > 1:
                o = np.lexsort((cr, cd))
                cr, cd, ct = cr[o], cd[o], ct[o]
            for i, d, t in zip(cr.tolist(), cd.tolist(), ct.tolist()):
                s = i // positions
                if won[s] or v[i, d] < th[i, d]:
                    continue  # the sample has its one spike, or an earlier fire inhibited it
                out[i, d] = t
                if wta:
                    won[s] = True
                    continue
                th[i, d] = np.inf
                layer = v[s * positions:(s + 1) * positions]
                np.maximum(layer - v_inh, 0.0, out=layer)
            if wta and won.all():
                break
        k0, size = k1, 2 * size
    out = out.reshape(n, positions, d_out).transpose(0, 2, 1)
    return np.ascontiguousarray(out).reshape(n, d_out, plan.out_shape.height, plan.out_shape.width)


# ---------------------------------------------------------------------------
# network-level driving


def forward_layer(
    network: Network,
    index: int,
    times: np.ndarray,
    policy: InhibitionPolicy = NO_INHIBITION,
) -> np.ndarray:
    """Fire-time grids of layer ``index`` for a (depth, H, W) input grid or
    an (N, depth, H, W) stack of them; the output has the input's rank.

    Pooling ignores ``policy``. A policy with ``layers="output"`` applies
    only when ``index`` is the network's last layer; elsewhere the layer
    runs without inhibition. The samples of a stack never interact: each
    output grid is the one its input grid gives alone. A grid holding NaN or
    -inf is rejected, naming its sample in a stack. ``index`` counts from 0;
    one that ``NetworkSpec.layer`` refuses raises a ValueError, and so does
    a ``policy`` that is not an ``InhibitionPolicy``.
    """
    if not isinstance(policy, InhibitionPolicy):
        raise ValueError(f"policy must be an InhibitionPolicy, got {type(policy).__name__}")
    times = np.asarray(times, dtype=np.float64)  # an integer grid has no +inf
    spec = network.spec
    layer = spec.layer(index)
    in_shape = spec.shapes[index].astuple()
    if times.ndim not in (3, 4) or tuple(times.shape[-3:]) != in_shape:
        raise ValueError(
            f"input grid shape {times.shape} does not match "
            f"layer {index} input {in_shape}"
        )
    stack = times if times.ndim == 4 else times[None]
    _check_stack(stack, 0 if times.ndim == 4 else None)
    plan = window_plan(in_shape, layer)
    if layer.kind == POOL:
        out = _pool_times(stack, plan)
    else:
        thresholds = network.thresholds[index]
        if network.weights[index] is None or thresholds is None:
            raise ValueError(f"layer {index} has uninitialized parameters")
        if policy.layers == "output" and index != len(spec.layers) - 1:
            policy = NO_INHIBITION
        wta, v_inh = policy.mode == "wta", policy.v_inh if policy.mode == "soft" else 0.0
        # winner-take-all in a one-position layer settles its one column, the
        # whole layer, at the first crossing, where the event engine stops
        event = (wta or v_inh > 0.0) and policy.scope == "layer" or wta and plan.positions == 1
        w_in, live = network.weights.input_major(index), network.weights.live_slots(index)
        if live.size < plan.window:  # a dead slot adds exactly ±0.0 to every potential
            plan = window_plan(in_shape, layer, live.tobytes())
            w_in = network.weights.live_rows(index)
        if not live.size:  # every potential stays 0, below every threshold
            out = np.full((len(stack), *plan.out_shape.astuple()), np.inf)
        elif event:
            out = _event_times(stack, w_in, thresholds, plan, wta, v_inh)
        else:
            out = _column_times(stack, w_in, thresholds, plan, wta, v_inh, network.w_min >= 0.0)
    return out if times.ndim == 4 else out[0]


def _check_stack(stack: np.ndarray, first: int | None) -> None:
    """Refuse a stack holding NaN or -inf, naming the offending grid as
    sample ``first`` + its index in the stack, or by no sample if ``first``
    is None; one ``np.min`` when every site is valid."""
    if not np.min(stack, initial=np.inf) > -np.inf:
        for i, grid in enumerate(stack):
            check_fire_times(grid, "" if first is None else f"sample {first + i}: ")


def stack_size(spec: NetworkSpec, start: int = 0, stop: int | None = None) -> int:
    """Samples per stack of ``forward_stacks`` over layers ``start`` to
    ``stop`` (default: the last).

    As many as keep the stack's fire-time grids, the input of layer
    ``start`` and the output of every layer it runs, within one
    crossing-scan chunk's element cap; at least 1. A range that ends in a
    small layer takes more samples than the whole network.
    """
    run = spec.layer_range(start, stop)
    return max(1, _CHUNK_ELEMS // sum(shape.size for shape in spec.shapes[run.start:run.stop + 1]))


def forward_stacks(network: Network, grids, policy: InhibitionPolicy = NO_INHIBITION,
                   start: int = 0, stop: int | None = None):
    """Run layers ``start`` to ``stop`` (default: the last) over a dataset.

    ``grids`` holds the input fields of layer ``start``, a sequence of
    (depth, H, W) grids or one (N, depth, H, W) array. The samples run in
    stacks of ``stack_size(network.spec, start, stop)``, sized by the
    layers of the range; for each stack this yields the index of its
    first sample and the list of its output stacks, one (n, depth, H, W)
    array per layer run, which stay alive until the next stack starts.
    Every layer runs as ``forward_layer`` runs it; a grid holding NaN or
    -inf is rejected by its index in ``grids``. A range that
    ``NetworkSpec.layer_range`` refuses, or a ``policy`` that is not an
    ``InhibitionPolicy``, raises a ValueError when iteration starts, even
    over an empty dataset.
    """
    layers = network.spec.layer_range(start, stop)
    if not isinstance(policy, InhibitionPolicy):
        raise ValueError(f"policy must be an InhibitionPolicy, got {type(policy).__name__}")
    size = stack_size(network.spec, start, stop)
    for lo in range(0, len(grids), size):
        outs = [np.asarray(np.stack(grids[lo:lo + size]), dtype=np.float64)]
        _check_stack(outs[0], lo)  # names the sample by its index in ``grids``
        for i in layers:
            outs.append(forward_layer(network, i, outs[-1], policy))
        yield lo, outs[1:]


def forward_times(
    network: Network,
    input_times: np.ndarray,
    policy: InhibitionPolicy = NO_INHIBITION,
) -> list[np.ndarray]:
    """Run one sample through every layer; returns per-layer fire-time grids.

    ``input_times`` is a (depth, H, W) array-like of spike timestamps with +inf
    marking silent sites; NaN or -inf input is rejected. Inhibition applies
    to trainable layers only; pooling is a fixed passthrough. The sample is
    ``forward_stacks``' dataset of one.
    """
    input_times = np.asarray(input_times, dtype=np.float64)
    if input_times.shape != network.spec.input_shape.astuple():
        raise ValueError(f"input grid shape {input_times.shape} is not one "
                         f"{network.spec.input_shape.astuple()} grid")
    network.require_ready()
    check_fire_times(input_times)
    ((_, outs),) = forward_stacks(network, input_times[None], policy)
    return [out[0] for out in outs]


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

    ``patch_times`` is (in_maps, F_h, F_w) with +inf for silent sites, and a
    NaN or -inf site is rejected; ``weights`` is (maps, in_maps, F_h, F_w)
    and ``thresholds`` (maps,), finite; each argument is read as float64
    (any array-like). The winner is the earliest crossing,
    ties resolved by lowest map index. Every map walks the inputs in event
    order in the crossing scan's slot-major blocks (module docstring), whose
    rows are the input-major weight rows of the block's inputs,
    ``w_in[order[k0:k1]]`` with ``w_in = weights.reshape(maps, -1).T``, so
    the cost is maps x inputs up to the first crossing. A network's
    ``weights[i]`` and ``train_layer``'s column are map-major views of a
    C-contiguous (window, maps) array, whose rows are contiguous gathers;
    the answer is the same for any layout. The scan ends at the first input
    any map crosses at, or when the inputs run out with no winner.
    """
    # a float64 array, as training's strided column view, passes uncopied
    patch_times = np.asarray(patch_times, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    maps = weights.shape[0]
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if patch_times.shape != weights.shape[1:] or thresholds.shape != (maps,):
        raise ValueError(f"patch {patch_times.shape} and thresholds {thresholds.shape} do not "
                         f"fit weights {weights.shape}: need {weights.shape[1:]} and ({maps},)")
    if not np.isfinite(thresholds).all():
        raise ValueError(f"thresholds must be finite, got {thresholds}")
    if not patch_times.min() > -np.inf:  # one pass finds a NaN or -inf site
        check_fire_times(patch_times)
    order = _event_order(patch_times.reshape(1, -1))
    w_in = weights.reshape(maps, -1).T  # one row of map weights per window slot
    carry = None
    k0, size = 0, _BLOCK0
    while k0 < order.size:
        k1 = min(k0 + size, order.size)
        v = w_in[order[k0:k1]]
        if carry is not None:
            v[0] += carry  # the same addition delivering this input one by one makes
        _running(np.add, v)
        crossed = v >= thresholds
        if crossed.any():  # at the first input any map crosses at, the lowest such map wins
            k = int(crossed.any(axis=1).argmax())
            t = patch_times.ravel()[order[k0 + k]]
            return ColumnResult(int(crossed[k].argmax()), float(t))
        carry = v[-1]
        k0, size = k1, 2 * size
    return ColumnResult(None, None)
