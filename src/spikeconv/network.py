"""Network architecture description and trainable state.

A network is a stack of convolution / pooling / fully-connected layers over
a 2-channel (on/off) input field. Convolution and fully-connected layers
share one filter bank and one threshold vector across all spatial positions
(column broadcast semantics); pooling layers hold no parameters: a pooling
neuron fires at the earliest input time in its window. A layer's filter bank
is stored once, input-major: one row of every map's weight per window slot,
the layout every simulator engine reads. Storing it also records the
layer's live slots, the window slots where some map's weight is not zero,
which the engines scan in place of the whole window.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import Shape3, check_count, is_integer

__all__ = ["LayerSpec", "NetworkSpec", "Network", "CONV", "POOL", "FC"]

CONV = "conv"
POOL = "pool"
FC = "fc"

_KINDS = (CONV, POOL, FC)


@dataclass(frozen=True)
class LayerSpec:
    """Geometry of one layer: kind, filter size, map count, stride, padding."""

    kind: str
    filter_h: int
    filter_w: int
    maps: int
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}, expected one of {_KINDS}")
        for name in ("filter_h", "filter_w", "maps", "stride"):
            check_count(f"{self.kind} layer: {name}", getattr(self, name))
        check_count(f"{self.kind} layer: padding", self.padding, low=0)

    @property
    def trainable(self) -> bool:
        return self.kind != POOL

    def out_shape(self, in_shape: Shape3) -> Shape3:
        """Output field produced from ``in_shape``; rejects degenerate fits."""
        oh = (in_shape.height + 2 * self.padding - self.filter_h) // self.stride + 1
        ow = (in_shape.width + 2 * self.padding - self.filter_w) // self.stride + 1
        if oh < 1 or ow < 1:
            raise ValueError(
                f"{self.kind} {self.filter_h}x{self.filter_w} stride {self.stride} "
                f"padding {self.padding} does not fit input {in_shape.astuple()}"
            )
        if self.kind == POOL:
            if self.maps != in_shape.depth:
                raise ValueError(
                    f"pooling maps ({self.maps}) must match input depth ({in_shape.depth})"
                )
            return Shape3(in_shape.depth, oh, ow)
        return Shape3(self.maps, oh, ow)

    def to_line(self) -> str:
        return (
            f"{self.kind} {self.filter_h} {self.filter_w} {self.maps} "
            f"{self.stride} {self.padding}"
        )

    @classmethod
    def from_line(cls, line: str) -> "LayerSpec":
        parts = line.split()
        if len(parts) != 6:
            raise ValueError(f"malformed layer line: {line!r}")
        kind = parts[0]
        try:
            nums = [int(p) for p in parts[1:]]
        except ValueError:
            raise ValueError(f"malformed layer line: {line!r}") from None
        return cls(kind, *nums)


class NetworkSpec:
    """Validated stack of layer specs over a fixed input field."""

    def __init__(self, input_shape: Shape3, layers) -> None:
        self.input_shape = input_shape
        self.layers = tuple(layers)
        if not self.layers:
            raise ValueError("network needs at least one layer")
        shapes = [input_shape]
        for spec in self.layers:
            shapes.append(spec.out_shape(shapes[-1]))
        # shapes[i] is the input field of layer i; shapes[-1] the output field
        self.shapes = tuple(shapes)

    @property
    def out_shape(self) -> Shape3:
        return self.shapes[-1]

    def trainable_indices(self) -> list[int]:
        return [i for i, s in enumerate(self.layers) if s.trainable]

    def layer(self, index: int, trainable: bool = False) -> LayerSpec:
        """Layer ``index``: an integer (``is_integer``) from 0 to
        ``len(layers) - 1``, and with ``trainable`` not a pooling layer.
        Anything else raises a ValueError naming it. Every entry that takes a
        layer index reads it through here."""
        if not (is_integer(index) and 0 <= index < len(self.layers)):
            raise ValueError(f"layer index {index} out of range for {len(self.layers)} layers")
        if trainable and not self.layers[index].trainable:
            raise ValueError(f"layer {index} is pooling and has no weights")
        return self.layers[index]

    def layer_range(self, start: int = 0, stop: int | None = None) -> range:
        """Layers ``start`` up to ``stop`` (default: ``len(layers)``) as a
        range of indices; a ValueError naming the range unless both are
        integers (``is_integer``) with ``0 <= start < stop <= len(layers)``."""
        n = len(self.layers)
        stop = n if stop is None else stop
        if not (is_integer(start) and is_integer(stop) and 0 <= start < stop <= n):
            raise ValueError(f"layer range {start}:{stop} is not a non-empty range of {n} layers")
        return range(start, stop)

    def weight_shape(self, index: int) -> tuple[int, int, int, int]:
        spec = self.layer(index, trainable=True)
        return (spec.maps, self.shapes[index].depth, spec.filter_h, spec.filter_w)


class _Slots(Sequence):
    """A network's parameters of one kind, one slot per layer; assigning a
    slot stores what ``check`` returns. It holds no reference to the network,
    so a dropped network is freed at once."""

    def __init__(self, kind: str, spec: NetworkSpec, w_min: float, w_max: float):
        self._kind, self._spec, self._bounds = kind, spec, (w_min, w_max)
        self._items = [None] * len(spec.layers)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index):
        return self._items[index]

    def __setitem__(self, index, value) -> None:
        index = range(len(self._items))[operator.index(index)]  # IndexError past the end
        self._store(index, self.check(index, value))

    def _store(self, index: int, value) -> None:
        self._items[index] = value

    def check(self, index: int, value):
        """``value`` as layer ``index`` holds it: None, a float or a read-only,
        C-contiguous float64 copy, input-major for weights (``_Weights``); a
        ValueError naming the layer and the kind if it may not, or naming
        an ``index`` that ``NetworkSpec.layer`` refuses."""
        layer, kind = self._spec.layer(index), self._kind
        if value is None and (kind == "firing target" or not layer.trainable):
            return None
        if not layer.trainable:
            raise ValueError(f"layer {index} is pooling and holds no {kind}")
        if kind == "firing target":
            if not np.isfinite(value := float(value)):
                raise ValueError(f"layer {index} firing target must be finite, got {value}")
            return value
        value = np.asarray(value, dtype=np.float64)
        expect = self._spec.weight_shape(index) if kind == "weights" else (layer.maps,)
        if value.shape != expect:
            raise ValueError(f"layer {index} {kind} must have shape {expect}, got {value.shape}")
        if kind == "weights":
            low, high = self._bounds
            ok, span = (value >= low) & (value <= high), f"[{low!r}, {high!r}]"
        else:  # a NaN threshold would mute its neuron
            ok, span = (value > 0.0) & (value < np.inf), "(0, inf)"
        if not ok.all():  # NaN fails either
            raise ValueError(f"layer {index} {kind} must lie in {span}, got {value[~ok][0]}")
        # weights are stored input-major, one row of map weights per window slot
        value = np.array(value.reshape(layer.maps, -1).T if kind == "weights" else value,
                         order="C")
        value.setflags(write=False)
        return value


class _Weights(_Slots):
    """The weight slots. Each holds its layer's weights once, input-major: a
    read-only, C-contiguous (window, maps) array whose row k holds every
    map's weight for window slot k. ``weights[i]`` reads it as its map-major
    (maps, in_maps, F_h, F_w) view. Every store also records the layer's
    live slots and their weight rows from the stored array (``live_slots``,
    ``live_rows``); they are never saved."""

    def __init__(self, *args):
        super().__init__(*args)
        self._live = [(None, None)] * len(self._items)

    def _store(self, index: int, value) -> None:
        super()._store(index, value)
        live = rows = None
        if value is not None:
            live = np.flatnonzero(value.any(axis=1))
            rows = value if live.size == len(value) else value[live]
            live.setflags(write=False)
            rows.setflags(write=False)
        self._live[index] = live, rows

    def __getitem__(self, index):
        rows, layer = self._items[index], self._spec.layers[index]
        return None if rows is None else rows.T.reshape(layer.maps, -1, layer.filter_h,
                                                        layer.filter_w)

    def input_major(self, index: int) -> np.ndarray:
        """Layer ``index``'s weights as stored, the (window, maps) array that
        every engine reads."""
        if (rows := self._items[index]) is None:
            raise ValueError(f"layer {index} holds no weights")
        return rows

    def live_slots(self, index: int) -> np.ndarray:
        """The window slots of layer ``index`` where some map's weight is not
        zero (-0.0 is zero), ascending: the rows of ``input_major(index)``
        that are not all zero, read-only. A slot outside it adds exactly
        zero to every potential."""
        if (live := self._live[index][0]) is None:
            raise ValueError(f"layer {index} holds no weights")
        return live

    def live_rows(self, index: int) -> np.ndarray:
        """The rows of ``input_major(index)`` at ``live_slots(index)``, a
        read-only (live slots, maps) array kept with them: what every engine
        reads of a layer with dead slots."""
        if (rows := self._live[index][1]) is None:
            raise ValueError(f"layer {index} holds no weights")
        return rows


class Network:
    """Architecture plus per-layer weights, thresholds and firing targets.

    ``weights[i]`` has shape (out_maps, in_maps, F_h, F_w) and ``thresholds[i]``
    shape (out_maps,); both are None for pooling layers. One parameter set per
    layer is stored and shared by every column of that layer.

    One check guards every write, by ``install_column`` or a slot assignment
    (``net.weights[i] = w``): weights in ``[w_min, w_max]``, thresholds finite
    and > 0, a firing target finite or None, None only on a pooling layer. It
    stores read-only float64 copies, and no attribute can be rebound.

    Each layer's weights are stored once, input-major, one row of map weights
    per window slot: ``weights.input_major(i)`` is that (window, maps) array,
    the one every simulator engine reads, and ``weights[i]`` a map-major view
    of it. Each write also records ``weights.live_slots(i)``, the rows of
    that array that are not all zero, and ``weights.live_rows(i)``, those
    rows, derived from the stored array and never saved.
    """

    def __init__(self, spec: NetworkSpec, w_min: float = 0.0, w_max: float = 1.0):
        if not (np.isfinite(w_min) and np.isfinite(w_max) and w_min < w_max):
            raise ValueError(f"need finite w_min < w_max, got {w_min}, {w_max}")
        w_min, w_max = float(w_min), float(w_max)
        self.__dict__.update(spec=spec, w_min=w_min, w_max=w_max,
                             weights=_Weights("weights", spec, w_min, w_max),
                             thresholds=_Slots("thresholds", spec, w_min, w_max),
                             t_targets=_Slots("firing target", spec, w_min, w_max))

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"Network.{name} cannot be rebound; install_column or assign a slot")

    __delattr__ = __setattr__

    def install_column(self, index: int, weights: np.ndarray, thresholds: np.ndarray,
                       t_target: float | None = None) -> None:
        """Broadcast one trained column onto every position of layer ``index``.

        Layer parameters are stored once and shared by construction, so the
        broadcast installs the column's weights, thresholds and firing target
        (None: no target), all three checked before any is stored.
        """
        slots = (self.weights, self.thresholds, self.t_targets)
        values = [s.check(index, v) for s, v in zip(slots, (weights, thresholds, t_target))]
        for s, value in zip(slots, values):
            s._store(index, value)

    @property
    def output_t_target(self) -> float | None:
        """The firing target of the last trainable layer, None if it has none."""
        trainable = self.spec.trainable_indices()
        return self.t_targets[trainable[-1]] if trainable else None

    def require_ready(self) -> None:
        for i in self.spec.trainable_indices():
            if self.weights[i] is None or self.thresholds[i] is None:
                raise ValueError(f"layer {i} has uninitialized parameters")
