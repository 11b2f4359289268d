"""Shared primitive types: spike events, shapes, seeded random streams.

Spikes are Dirac impulses carrying a timestamp and a voltage. Every module
in the package exchanges them either as :class:`SpikeEvent` lists (API
boundary) or as dense fire-time grids (internal hot paths).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SpikeEvent",
    "Shape3",
    "RngStreams",
    "times_to_events",
]


@dataclass(frozen=True, order=True)
class SpikeEvent:
    """A timestamped impulse at a (layer, map, x, y) site.

    Field order defines the total event order: (time, layer, map, y, x).
    ``voltage`` is the pre-synaptic amplitude (1.0 for raw spikes); it does
    not participate in ordering.
    """

    time: float
    layer: int
    map: int
    y: int
    x: int
    voltage: float = field(default=1.0, compare=False)

    def __post_init__(self):
        if not np.isfinite(self.voltage):
            raise ValueError(f"spike voltage must be finite, got {self.voltage}")
        if not np.isfinite(self.time):
            raise ValueError(f"spike time must be finite, got {self.time}")


def times_to_events(times: np.ndarray, layer: int) -> list[SpikeEvent]:
    """Unpack a (maps, H, W) fire-time grid (+inf = silent) into sorted events."""
    events = []
    for m, y, x in zip(*np.nonzero(np.isfinite(times))):
        events.append(SpikeEvent(float(times[m, y, x]), layer, int(m), int(y), int(x)))
    events.sort()
    return events


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
