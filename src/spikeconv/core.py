"""Shared primitive types: shapes and seeded random streams.

Every module in the package exchanges spikes as fire-time grids: a
(maps, H, W) float array holding each site's one spike time per sample,
+inf where the site stays silent.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

__all__ = ["Shape3", "RngStreams", "is_integer", "check_count", "check_fire_times",
           "check_grids"]


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or NumPy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_count(name: str, value, low: int = 1) -> None:
    """Refuse a ``value`` that is not an integer (``is_integer``) of at
    least ``low`` with a ValueError naming it ``name``."""
    if not is_integer(value) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass(frozen=True)
class Shape3:
    """Depth x height x width of a layer's spike field."""

    depth: int
    height: int
    width: int

    def __post_init__(self):
        for name in ("depth", "height", "width"):
            check_count(f"Shape3.{name}", getattr(self, name))

    @property
    def size(self) -> int:
        return self.depth * self.height * self.width

    def astuple(self) -> tuple[int, int, int]:
        return (self.depth, self.height, self.width)


def check_fire_times(times: np.ndarray, where: str = "") -> None:
    """Reject a fire-time grid holding NaN or -inf: neither is a spike time.

    ``where`` prefixes the message, e.g. the index of the sample.
    """
    bad = ~(times > -np.inf)  # true at NaN and -inf
    if bad.any():
        kind = "NaN" if np.isnan(times[bad]).any() else "-inf"
        raise ValueError(f"{where}input spike times contain {kind}; +inf marks a silent site")


def check_grids(grids, shape: Shape3, name: str = "the network input") -> None:
    """Reject a dataset of fire-time grids that a stack of ``shape`` grids cannot hold.

    Each grid, any array-like of numbers read as float64, must have
    ``shape`` and hold no NaN or -inf; the message names the first
    offending sample's index and, as ``name``, what ``shape`` is the shape
    of. A ragged or non-numeric grid is refused the same way.
    """
    for i, grid in enumerate(grids):
        try:
            grid = np.asarray(grid, dtype=np.float64)
        except (TypeError, ValueError) as e:
            raise ValueError(f"sample {i}: input grid is not an array of spike times: {e}") from None
        if np.shape(grid) != shape.astuple():
            raise ValueError(f"sample {i}: input grid shape {np.shape(grid)} does not match "
                             f"{name} {shape.astuple()}")
        check_fire_times(grid, f"sample {i}: ")


class RngStreams:
    """Named deterministic random streams derived from one 64-bit seed.

    Each (purpose, layer) pair owns an independent PCG64 stream: drawing
    more values from one stream never perturbs another, and identical
    (seed, purpose, layer) triples reproduce identical sequences across
    runs and platforms.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)

    def stream(self, purpose: str, layer: int = 0) -> np.random.Generator:
        tag = zlib.crc32(purpose.encode("utf-8"))
        ss = np.random.SeedSequence([self.seed & 0xFFFFFFFFFFFFFFFF, tag, int(layer)])
        return np.random.Generator(np.random.PCG64(ss))

    def child(self, *key: int) -> "RngStreams":
        """Independent sub-family addressed by integer key components.

        Keying by content (rather than position) keeps a consumer's draws
        stable when unrelated siblings are added, removed or reordered.
        """
        ints = [self.seed & 0xFFFFFFFFFFFFFFFF, 0x6D656D62]
        ints.extend(int(k) & 0xFFFFFFFFFFFFFFFF for k in key)
        ss = np.random.SeedSequence(ints)
        return RngStreams(int(ss.generate_state(1, np.uint64)[0]))
