"""The machine's speed over a run, for timings that do not drift with it.

The benchmark runs on a shared host whose speed drifts: a fixed loop of
Python runs up to 1.8 times slower at some moments than at others, and a
slow spell can last longer than a run.  Medians over rounds cannot remove
that, so every duration the benchmark reports is scaled to a reference
speed.  Between ops, at most every ``INTERVAL_S``, the benchmark times a
fixed calibration kernel made of the kinds of work the program does: a
branchy loop of Python float arithmetic, many small numpy eigensolves, one
medium LAPACK eigensolve, a recurrence of numpy calls on short vectors (the
pattern of Sturm bisection) and a walk over Python objects scattered in
memory, which slows down, as the program does, when neighbours crowd the
shared caches.  A duration measured over [start, end] is then
multiplied by ``REFERENCE_S`` over the median kernel time seen within
``WINDOW_S`` of that interval.  The result reads in seconds at the speed at
which the kernel takes ``REFERENCE_S``.  The kernel is the benchmark's own
code, so a change to the program moves the scaled times and not the scale.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

import numpy as np

# The kernel's time at the reference speed: its median on the 2-vCPU box of
# README.md in the box's slower spells, so scaled times read close to the
# times measured then.
REFERENCE_S = 6.0e-3
INTERVAL_S = 0.1
WINDOW_S = 1.0

_SMALL = np.add.outer(np.arange(8.0), np.arange(8.0)) % 5.0
_MEDIUM = np.add.outer(np.arange(80.0), np.arange(80.0)) % 7.0
_SHIFTS = np.linspace(-3.0, 3.0, 256)
_SCATTERED = [float(i) for i in range(20000)]
random.Random(0).shuffle(_SCATTERED)


def kernel() -> float:
    """The calibration work: fixed inputs, fixed amount.  Returns a value
    so that none of it can be skipped."""
    x, below = 0.3, 0
    for _ in range(15000):  # a branchy float loop, like bisection
        x = 1.7 - x * x
        if x < 0.0:
            below += 1
    acc = 0.0
    for _ in range(40):
        acc += float(np.linalg.eigvalsh(_SMALL)[0])
    acc += float(np.linalg.eigvalsh(_MEDIUM)[-1])
    d = np.ones_like(_SHIFTS)
    for k in range(120):
        pivot = np.where(np.abs(d) < 1e-150, 1e-150, d)
        d = ((k % 3) - 1.0 - _SHIFTS) - 0.7 / pivot
        below += int(np.count_nonzero(d < 0))
    for v in _SCATTERED:
        acc += v
    return below + acc


class Speedometer:
    """Kernel timings over a run, and the scale they give each duration."""

    def __init__(self):
        self.times: list[float] = []      # kernel midpoints, increasing
        self.durations: list[float] = []
        self._last = float("-inf")

    def calibrate(self):
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.times.append(0.5 * (start + end))
        self.durations.append(end - start)
        self._last = end

    def tick(self):
        """Calibrate if the last calibration is older than ``INTERVAL_S``."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.calibrate()

    def scaled(self, start: float, end: float) -> float:
        """The duration of [start, end] at the reference speed."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        return (end - start) * REFERENCE_S / statistics.median(self.durations[lo:hi])

    def summary(self) -> dict:
        return {"reference_s": REFERENCE_S, "kernels": len(self.durations),
                "median_s": statistics.median(self.durations),
                "min_s": min(self.durations), "max_s": max(self.durations)}
