"""Machine-speed calibration for the timings.

On a shared virtual machine, whose physical cores other guests also use,
the speed of one core can swing by a third over seconds to minutes; wall
times of the same work then differ more between runs than any regression
bound.  So a short fixed kernel, independent of altkit, is timed between
the calls of every pass, and each call's wall time is scaled by
REFERENCE_KERNEL_S over the kernel times measured next to it.  Timings are
therefore reported in reference seconds: the wall time the call would take
on a machine where the kernel takes REFERENCE_KERNEL_S.  The kernel mixes
the work altkit does, Fraction arithmetic and small numpy calls, so a change
to altkit moves the reported times and a change of machine speed does not.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter
from typing import List

import numpy as np

REFERENCE_KERNEL_S = 1e-3
SAMPLE_EVERY_S = 0.02   # kernel samples between calls at most this far apart
NEIGHBOURS = 2          # kernel samples used on each side of a call

_FRACTIONS = [Fraction(i, i + 7) for i in range(1, 50)]
_TENSOR = np.arange(64, dtype=float).reshape(4, 4, 4) / 64


def kernel() -> Fraction:
    acc = Fraction(0)
    for a in _FRACTIONS:
        for b in _FRACTIONS[:6]:
            acc += a * b
    x = np.ones(4)
    for _ in range(25):
        x = np.einsum("i,ijk->k", x, _TENSOR) / 4 + 1
    return acc


def time_kernel() -> float:
    start = perf_counter()
    kernel()
    return perf_counter() - start


def speed_factor(repeats: int = 15) -> float:
    """REFERENCE_KERNEL_S over the median of a few kernel times."""
    return REFERENCE_KERNEL_S / statistics.median(time_kernel() for _ in range(repeats))


class Calibrator:
    """Kernel samples taken during a pass, as (end time, kernel seconds)."""

    def __init__(self):
        self.ends: List[float] = []
        self.times: List[float] = []
        self._last = float("-inf")

    def sample(self, force: bool = False) -> None:
        if force or perf_counter() - self._last >= SAMPLE_EVERY_S:
            k = time_kernel()
            self._last = perf_counter()
            self.ends.append(self._last)
            self.times.append(k)

    def scale(self, start: float, latency: float) -> float:
        """A call's latency in reference seconds, from the kernel samples
        just before and just after it."""
        before = bisect_left(self.ends, start)
        after = bisect_right(self.ends, start + latency)
        near = self.times[max(0, before - NEIGHBOURS):before] + \
            self.times[after:after + NEIGHBOURS]
        return latency * REFERENCE_KERNEL_S / statistics.fmean(near)
