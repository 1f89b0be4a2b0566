"""Speed-adjusted time.

The benchmark was written on a 2-vCPU Xeon VM whose cores are shared with
other machines' work: the same queries took 9 s of wall time in one minute
and 16.5 s in another, in slow and fast phases that last from seconds to
minutes, so a wall time says more about the neighbours than about the code.
The benchmark therefore reports *reference seconds*: while a run measures,
a SIGPROF handler times a fixed pure-Python kernel every 25 ms of CPU time,
and each stretch of wall time between two samples is scaled by
KERNEL_REFERENCE_S over the kernel's (smoothed) time at the start of the
stretch. On
an uncontended core of that VM a reference second is close to a wall
second; elsewhere only comparisons between runs of the same machine mean
anything. On identical work the adjusted times varied by about 3 %, the
wall times by 8 to 15 %.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

KERNEL_REFERENCE_S = 1.3e-4
INTERVAL_S = 0.025
SMOOTHING = 9


def kernel() -> list:
    """Dictionary, tuple and call traffic like the solver's own; tracked
    the solver's slowdowns better than a plain arithmetic loop."""
    counts: dict = {}
    for i in range(400):
        key = (i % 13, i % 7)
        counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items())


def kernel_time() -> float:
    start = perf_counter()
    kernel()
    return perf_counter() - start


class SpeedClock:
    """Samples the kernel while started; adjusted(t0, t1) converts a
    perf_counter interval into reference seconds."""

    def __init__(self):
        self.times: list[float] = []
        self.kernels: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.times.append(perf_counter())
        self.kernels.append(kernel_time())

    def start(self) -> None:
        self._tick(None, None)
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def _kernel_s(self, i: int) -> float:
        """Kernel time around sample i: the median of SMOOTHING samples
        centred on it, since one 0.1 ms sample can land in a time slice
        lost to a neighbour."""
        half = SMOOTHING // 2
        return statistics.median(self.kernels[max(0, i - half):i + half + 1])

    def adjusted(self, t0: float, t1: float) -> float:
        i = bisect.bisect_right(self.times, t0)
        kernel_s = self._kernel_s(max(i - 1, 0))
        total = 0.0
        at = t0
        while i < len(self.times) and self.times[i] <= t1:
            total += (self.times[i] - at) / kernel_s
            at, kernel_s = self.times[i], self._kernel_s(i)
            i += 1
        total += (t1 - at) / kernel_s
        return total * KERNEL_REFERENCE_S
