"""Shared primitive types: shapes and seeded random streams.

Every module in the package exchanges spikes as fire-time grids: a
(maps, H, W) float array holding each site's one spike time per sample,
+inf where the site stays silent.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

__all__ = ["Shape3", "RngStreams", "check_fire_times"]


@dataclass(frozen=True)
class Shape3:
    """Depth x height x width of a layer's spike field."""

    depth: int
    height: int
    width: int

    def __post_init__(self):
        for name in ("depth", "height", "width"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v <= 0:
                raise ValueError(f"Shape3.{name} must be a positive integer, got {v!r}")

    @property
    def size(self) -> int:
        return self.depth * self.height * self.width

    def astuple(self) -> tuple[int, int, int]:
        return (self.depth, self.height, self.width)


def check_fire_times(times: np.ndarray) -> None:
    """Reject a fire-time grid holding NaN or -inf: neither is a spike time."""
    bad = ~(times > -np.inf)  # true at NaN and -inf
    if bad.any():
        kind = "NaN" if np.isnan(times[bad]).any() else "-inf"
        raise ValueError(f"input spike times contain {kind}; +inf marks a silent site")


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
