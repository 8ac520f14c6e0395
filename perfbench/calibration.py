"""Machine-speed calibration for the benchmark's timings.

Shared machines change speed by half within seconds as other tenants come and
go, which moves timings of identical work by more than any bound worth
keeping.  The benchmark times ops in process CPU time, so time the scheduler
gives to other processes does not count, and a Sampler runs a fixed kernel
from SIGALRM every PERIOD_S while ops run, so the CPU's speed is sampled
inside long ops as well as between short ones.  `scale` then removes the
kernel's own time from each op and rescales the rest to a machine on which
the kernel takes REF_S of CPU time.

The kernel is a fixed mix of interpreter, numpy, Fraction, math and mpmath
work, in about the proportions regpot uses them.  It calls nothing in regpot,
so a change to regpot cannot change its time; only the machine's speed can.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from array import array
from fractions import Fraction

import mpmath
import numpy as np

PERIOD_S = 0.1
MIN_SAMPLES = 7
REF_S = 0.002  # kernel time on an uncontended core of the machine the bounds were set on

_ARR = np.linspace(0.1, 1.0, 15)
_FRACS = [Fraction(3 ** k, 7 ** (k // 2) + 1) for k in range(40)]


def kernel_seconds() -> float:
    t0 = time.process_time()
    s = 0
    for i in range(6000):
        s += i * i % 7
    for i in range(150):
        float(np.sum(_ARR * np.exp(-_ARR * i)))
    acc = Fraction(0)
    for f in _FRACS:
        acc = acc * Fraction(1, 3) + f
    for i in range(800):
        math.lgamma(i * 0.37 + 1.0)
    with mpmath.workdps(30):  # restores the interrupted code's precision on exit
        v = mpmath.mpf(1)
        for _ in range(100):
            v = v * mpmath.mpf(1.0001) + 1
    return time.process_time() - t0


class Sampler:
    """Context manager: kernel samples (start time, seconds) taken on entry,
    every PERIOD_S from SIGALRM, and on exit."""

    def __init__(self):
        self.starts: list[float] = []
        self.secs: list[float] = []

    def _sample(self, *_):
        self.starts.append(time.perf_counter())
        self.secs.append(kernel_seconds())

    def __enter__(self):
        self._sample()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()

    def scale(self, starts, walls, cpu) -> array:
        """The CPU seconds of each interval (perf_counter start, wall
        seconds), sorted by start, rescaled to REF_S kernel speed by the mean
        of the samples taken inside it and the nearest one on each side,
        widened on both sides to at least MIN_SAMPLES: one 2 ms sample
        varies too much to scale a short op by.  Samples inside an interval
        interrupted it, so their time is first taken off."""
        out, j, n = array("d"), 0, len(self.starts)
        for a, w, d in zip(starts, walls, cpu):
            while j < n and self.starts[j] < a:
                j += 1
            k = j
            while k < n and self.starts[k] < a + w:
                k += 1
            d -= sum(self.secs[j:k])
            lo, hi = max(j - 1, 0), min(k + 1, n)
            while hi - lo < MIN_SAMPLES and (lo > 0 or hi < n):
                lo, hi = max(lo - 1, 0), min(hi + 1, n)
            out.append(d * REF_S / statistics.fmean(self.secs[lo:hi]))
        return out
