"""Network architecture description and trainable state.

A network is a stack of convolution / pooling / fully-connected layers over
a 2-channel (on/off) input field. Convolution and fully-connected layers
share one filter bank and one threshold vector across all spatial positions
(column broadcast semantics); pooling layers have no state at all: their
weights and thresholds are fixed to 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Shape3

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
            if int(getattr(self, name)) < 1:
                raise ValueError(f"{self.kind} layer: {name} must be >= 1")
        if self.padding < 0:
            raise ValueError(f"{self.kind} layer: padding must be >= 0")

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

    def weight_shape(self, index: int) -> tuple[int, int, int, int]:
        spec = self.layers[index]
        if not spec.trainable:
            raise ValueError(f"layer {index} is pooling and has no weights")
        return (spec.maps, self.shapes[index].depth, spec.filter_h, spec.filter_w)


class Network:
    """Architecture plus per-layer weights, thresholds and firing targets.

    ``weights[i]`` has shape (out_maps, in_maps, F_h, F_w) and ``thresholds[i]``
    shape (out_maps,); both are None for pooling layers. One parameter set per
    layer is stored and shared by every column of that layer.
    """

    def __init__(self, spec: NetworkSpec, w_min: float = 0.0, w_max: float = 1.0):
        if not (np.isfinite(w_min) and np.isfinite(w_max) and w_min < w_max):
            raise ValueError(f"need finite w_min < w_max, got {w_min}, {w_max}")
        self.spec = spec
        self.w_min = float(w_min)
        self.w_max = float(w_max)
        self.weights: list = [None] * len(spec.layers)
        self.thresholds: list = [None] * len(spec.layers)
        self.t_targets: list = [None] * len(spec.layers)

    def install_column(self, index: int, weights: np.ndarray, thresholds: np.ndarray,
                       t_target: float | None = None) -> None:
        """Broadcast one trained column onto every position of layer ``index``.

        Layer parameters are stored once and shared by construction, so the
        broadcast installs the column's weights and thresholds.
        """
        weights = np.array(weights, dtype=np.float64)
        thresholds = np.array(thresholds, dtype=np.float64)
        self.check_column(index, weights, thresholds)
        self.weights[index], self.thresholds[index] = weights, thresholds
        if t_target is not None:
            self.t_targets[index] = float(t_target)

    def check_column(self, index: int, weights: np.ndarray, thresholds: np.ndarray) -> None:
        """Raise a ValueError naming layer ``index`` unless it can hold this column."""
        expect = self.spec.weight_shape(index)
        if weights.shape != expect:
            raise ValueError(f"layer {index} expects weights {expect}, got {weights.shape}")
        if thresholds.shape != (self.spec.layers[index].maps,):
            raise ValueError(
                f"layer {index} expects {self.spec.layers[index].maps} thresholds, "
                f"got {thresholds.shape}"
            )
        if not np.all((weights >= self.w_min) & (weights <= self.w_max)):  # NaN fails too
            raise ValueError(f"layer {index} weights are NaN or outside the bounds "
                             f"[{self.w_min!r}, {self.w_max!r}]")
        if not np.all(np.isfinite(thresholds) & (thresholds > 0)):  # NaN would mute a neuron
            raise ValueError(f"layer {index} thresholds must be finite and > 0")

    @property
    def output_t_target(self) -> float | None:
        """The firing target of the last trainable layer, None if it has none."""
        trainable = self.spec.trainable_indices()
        return self.t_targets[trainable[-1]] if trainable else None

    def require_ready(self) -> None:
        for i in self.spec.trainable_indices():
            if self.weights[i] is None or self.thresholds[i] is None:
                raise ValueError(f"layer {i} has uninitialized parameters")
