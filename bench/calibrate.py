"""Interpreter-speed calibration.

The machines this benchmark runs on change speed by up to 1.8x within
seconds (shared cores), which moves every Python workload alike.  A fixed
pure-Python kernel (tuples, dict updates, int and Fraction arithmetic) is
timed along the measured work; a time scaled by REFERENCE_S / kernel time
is the time the work would have taken at the reference speed.

The kernel imports `fractions`, so it must run after any import being timed.
"""

from __future__ import annotations

import signal
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

# Kernel time (best of 3) on a 2-core x86-64 VM with CPython 3.11.7 in a
# fast phase; it only sets the scale of the "reference seconds".
REFERENCE_S = 150e-6


def _kernel() -> Fraction:
    table: dict = {}
    total = Fraction(0)
    for i in range(300):
        key = (i % 7, i % 5, i % 3)
        table[key] = table.get(key, 0) + i
        if i % 10 == 0:
            total += Fraction(i, 7)
    return total


def kernel_seconds() -> float:
    best = float("inf")
    for _ in range(3):
        t = perf_counter()
        _kernel()
        best = min(best, perf_counter() - t)
    return best


class SpeedSampler:
    """Times the kernel on entry, on exit and, with `timer`, every `interval`
    seconds in between from a SIGALRM handler, so that work longer than the
    interval is calibrated along its whole length and not only at its ends.
    Without the timer the caller samples between pieces of work.

    The handler runs in the main thread between bytecodes; the time it takes
    is recorded so that callers can leave it out of their measurements.
    """

    def __init__(self, timer: bool = True, interval: float = 0.01) -> None:
        self.timer = timer
        self.interval = interval
        self.at = array("d")
        self.kernel = array("d")
        self.done = array("d")
        self._sampling = False

    def sample(self, *_signal_args) -> None:
        if self._sampling:  # a late timer fired inside the handler
            return
        self._sampling = True
        t = perf_counter()
        k = kernel_seconds()
        self.at.append(t)
        self.kernel.append(k)
        self.done.append(perf_counter())
        self._sampling = False

    def __enter__(self) -> "SpeedSampler":
        self.sample()
        if self.timer:
            self._previous = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def due(self) -> bool:
        return perf_counter() - self.at[-1] >= self.interval

    def busy(self, t0: float, t1: float) -> float:
        """Seconds the sampler itself ran inside [t0, t1)."""
        lo, hi = bisect_left(self.at, t0), bisect_left(self.at, t1)
        return sum(self.done[i] - self.at[i] for i in range(lo, hi))

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the mean kernel time near [t0, t1]."""
        lo = bisect_left(self.at, t0 - self.interval)
        hi = bisect_right(self.at, t1 + self.interval)
        if lo == hi:  # the timer was late; take the nearest samples
            lo, hi = max(0, lo - 1), min(len(self.at), hi + 1)
        near = self.kernel[lo:hi]
        return REFERENCE_S * len(near) / sum(near)
