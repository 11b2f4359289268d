"""Machine-speed reference for wall times taken on a shared host.

On a shared virtual machine, other tenants switch the speed of the CPU
this process runs on between modes about 30% apart, for tens to hundreds
of milliseconds at a time, and move its average over minutes. A short
fixed kernel shaped like the simulator's mix of work (sort rows and take
cumulative sums, gather weight columns and sum them, sort and sum small
vectors, an interpreted loop) is timed between consecutive single-sample
calls. Reported times are multiplied by ``NOMINAL_S / kernel time``,
giving seconds at a fixed reference speed:

- a single-sample latency uses the kernel runs just before and just after
  it, which share its speed mode;
- a block of seconds uses the mean of the kernel runs within
  ``WINDOW_S`` of it, which tracks the mixture of modes over that stretch.

The kernel is the benchmark's own code and works only on buffers it
allocates once, so it allocates nothing while timed. Before each timed
pass an untimed pass streams through a private buffer larger than a
core's L2 cache (2 MiB on the host the bounds were set on), so every
timed pass starts with its own data out of L2, whatever the package call
before it left there. What a package call leaves behind (cache contents,
allocator state) therefore does not reach the timed pass, and a change
to the package cannot move the reference; the kernel still feels the
shared last-level cache and memory traffic of other tenants, as the
package's calls do. The raw wall times are kept as well, so that a
scaled figure can be checked against wall time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np


class Speed:
    NOMINAL_S = 0.002
    WINDOW_S = 5.0
    EVICT_BYTES = 6 << 20

    def __init__(self):
        self.kernel_s: list = []  # (time, kernel seconds)
        rng = np.random.default_rng(0)
        self._rows = rng.random((64, 400))
        self._weights = rng.random((32, 2001))
        self._index = rng.integers(0, 2001, (8, 400))
        self._small = [rng.random(n) for n in (50, 100, 200, 400, 800)]
        self._rows_out = np.empty_like(self._rows)
        self._gather = np.empty((32, 8, 400))
        self._small_out = [np.empty_like(a) for a in self._small]
        self._evict = np.zeros(self.EVICT_BYTES // 8)

    def _kernel(self) -> None:
        out = self._rows_out
        out[...] = self._rows
        out.sort(axis=1)
        np.cumsum(out, axis=1, out=out)
        np.take(self._weights, self._index, axis=1, out=self._gather)
        np.cumsum(self._gather, axis=2, out=self._gather)
        for a, b in zip(self._small, self._small_out):
            b[...] = a
            b.sort(kind="stable")
            np.cumsum(b, out=b)

    def calibrate(self) -> None:
        """Time one kernel pass, after an untimed pass that clears L2 of its data."""
        np.add(self._evict, 1.0, out=self._evict)
        start = time.perf_counter()
        self._kernel()
        total = 0
        for i in range(5000):
            total += i * i
        self.kernel_s.append((start, time.perf_counter() - start))

    def factor(self) -> float:
        """Reference speed over this run's mean speed."""
        return self.NOMINAL_S / statistics.fmean(k for _, k in self.kernel_s)

    def seconds(self, span) -> float:
        """A block's wall seconds at the reference speed of the kernel runs around it."""
        start, end = span
        near = [k for t, k in self.kernel_s if start - self.WINDOW_S <= t <= end + self.WINDOW_S]
        return (end - start) * self.NOMINAL_S / statistics.fmean(near or [k for _, k in self.kernel_s])

    def samples(self, calls) -> list:
        """Run each of ``calls`` in turn with a kernel run between neighbours.

        Returns ``(result, seconds at reference speed, wall seconds)`` per call.
        """
        out = []
        self.calibrate()
        for call in calls:
            start = time.perf_counter()
            result = call()
            wall = time.perf_counter() - start
            self.calibrate()
            before, after = self.kernel_s[-2][1], self.kernel_s[-1][1]
            out.append((result, wall * 2 * self.NOMINAL_S / (before + after), wall))
        return out
