"""In-memory spans and counters recorded around calls into spikeconv.

Spans are opened by the benchmark's own code around calls into the
package's public functions; nothing inside the package is instrumented.
A span records its name, a label (the layer or policy it belongs to) and
its start and end times. Everything stays in memory until the run
reports.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class Tracer:
    """Collects spans and counters for one traced run."""

    enabled = True

    def __init__(self):
        self.spans: list = []   # (name, label, start, end)
        self.counts: dict = {}
        self.label = None       # layer currently trained, read by call wrappers

    @contextmanager
    def span(self, name: str, label=None):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, label, start, time.perf_counter()))

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def seconds(self, name: str, label=None) -> float:
        """Summed duration of the finished spans with this name (and label)."""
        return sum(s[3] - s[2] for s in self.spans
                   if s[0] == name and (label is None or s[1] == label))

    def calls(self, name: str, label=None) -> int:
        return sum(1 for s in self.spans
                   if s[0] == name and (label is None or s[1] == label))


class NullTracer:
    """Stand-in for untraced runs: every span and counter is a no-op."""

    enabled = False

    def span(self, name: str, label=None):
        return nullcontext()

    def add(self, key: str, value) -> None:
        pass


@contextmanager
def patched(module, attr: str, wrapper):
    """Replace ``module.attr`` by ``wrapper(original)`` for the block's duration."""
    original = getattr(module, attr)
    setattr(module, attr, wrapper(original))
    try:
        yield
    finally:
        setattr(module, attr, original)
