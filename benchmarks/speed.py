"""Machine-speed probe: express measured times at a fixed reference speed.

On a shared two-vCPU VM the same Python code runs up to twice as slow for
seconds to minutes at a time, as other tenants load the host; the slowdown
shows in CPU time too, so it is not preemption.  Times taken minutes apart
are then not comparable.  The probe times a fixed kernel between ops (pure
Python, apsum-independent: a small DP table and shifts of multi-kilobyte
integers, as apsum's layers do; nothing that streams memory, which other
tenants slow far more than they slow apsum) and rescales each op's time by
the kernel's time around it:

    reference seconds = measured seconds * KERNEL_REF_S / kernel seconds

so a reference second is a second on a machine where the kernel takes
KERNEL_REF_S.  A change to apsum moves reference times exactly as it moves
measured times; only the machine's drift cancels.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

KERNEL_REF_S = 0.0006  # about the kernel's uncontended time on a 2-vCPU Xeon VM
SAMPLE_EVERY_S = 0.02  # at most one kernel run per this much op time
BURST = 8  # most kernel runs right after one long op
WINDOW_S = 0.5  # kernel samples this close to an op describe its speed

_GENS = (11, 24, 39, 56, 75)
_SMALL = (1 << 30000) - 1
_BIG = (1 << 400000) - 1


def kernel() -> int:
    """Fixed work: a small DP and big-int shifts."""
    acc = 0
    orders = [-1] * 1500
    orders[0] = 0
    for v in range(1, 1500):
        best = -1
        for g in _GENS:
            if g > v:
                break
            prev = orders[v - g]
            if prev >= 0 and prev + 1 > best:
                best = prev + 1
        orders[v] = best
    for v in range(0, 30000, 300):
        acc += _SMALL >> v & 1
    for v in range(0, 400000, 20000):
        acc += _BIG >> v & 1
    return acc + orders[-1]


class SpeedProbe:
    """Kernel timings over a run, looked up by time."""

    def __init__(self):
        self.times: list[float] = []
        self.costs: list[float] = []

    def sample(self, force: bool = False) -> None:
        start = perf_counter()
        if force or not self.times or start - self.times[-1] >= SAMPLE_EVERY_S:
            kernel()
            self.times.append(start)
            self.costs.append(perf_counter() - start)

    def after_op(self, seconds: float) -> None:
        """Sample once per SAMPLE_EVERY_S the op took, so a long op, which no
        sample can fall inside, still gets enough samples next to it."""
        for _ in range(min(BURST, int(seconds / SAMPLE_EVERY_S))):
            self.sample(force=True)

    def scale(self, start: float, end: float) -> float:
        """Factor from measured to reference seconds for the interval."""
        lo = bisect_left(self.times, start - WINDOW_S)
        hi = bisect_right(self.times, end + WINDOW_S)
        window = self.costs[lo:hi] or self.costs[max(0, lo - 1):lo + 1]
        return KERNEL_REF_S / statistics.median(window)

    def speed(self) -> float:
        """Median reference seconds per measured second over the run so far."""
        return KERNEL_REF_S / statistics.median(self.costs)
