"""Machine-speed sampling, for timing on a shared host whose speed drifts.

On a small virtual machine shared with other tenants, the same pure-Python
work can take twice as long from one second to the next: timing
``exact_max_code(4, 2, 1)`` back to back for two minutes on a 2-vCPU KVM
guest (Xeon, 2.0 GHz) gave 440 to 880 ms, in stretches of slow and fast
calls from a tenth of a second to tens of seconds long, and process CPU
time moved with wall time.  Neither a median nor a minimum over one run
removes drifts that last as long as the run.

A ``Speedometer`` interrupts the pass every ``PERIOD_S`` (``SIGALRM``; no
thread) and times a fixed pure-Python ``kernel``.  The mean kernel time
around a cell, divided by ``KERNEL_REF_S``, is the cell's slowdown.  The
benchmark reports each cell's time, less the time spent sampling inside
it, divided by its slowdown: seconds at the reference speed.  Raw times
are printed next to them.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

PERIOD_S = 0.025
# Samples this close to a cell count towards its slowdown.  The speed
# changes within a tenth of a second: repeating character-LP cells of
# 0.05-0.7 s for 100 s, one period gave per-cell spreads of 5-7% of the
# mean, against 11-14% for 0.25 s and 23-29% raw.
MARGIN_S = PERIOD_S
# Kernel time at the reference speed.  Only the scale of reference
# seconds depends on it; it is about the kernel's typical time on the
# guest above under CPython 3.11.
KERNEL_REF_S = 0.0005
_MASK = (1 << 256) - 1


def kernel():
    """A fixed mix of the operations aldkit's hot loops are made of:
    Fraction arithmetic, big-integer bit operations and dict stores."""
    acc = Fraction(0)
    x = 1
    table = {}
    for i in range(1, 120):
        acc += Fraction(i, i + 7)
        x = (x * 0x5DEECE66D + 11) & _MASK
        table[i & 63] = (x >> (i & 127)) & 0xFFFF
    return acc


def slowdown_now(samples=20):
    """Slowdown from kernel runs made now, for work that cannot be sampled
    while it runs, such as a child process."""
    total = 0.0
    for _ in range(samples):
        start = time.perf_counter()
        kernel()
        total += time.perf_counter() - start
    return total / samples / KERNEL_REF_S


class Speedometer:
    """Samples the kernel while active; ``over`` judges an interval."""

    def __init__(self):
        self.samples = []  # (end time, kernel seconds), in time order
        self._previous = None

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append((end, end - start))

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def over(self, t0, t1):
        """(slowdown, seconds spent sampling) for the interval [t0, t1].

        The slowdown averages the samples within ``MARGIN_S`` of the
        interval, or the two on either side of it if there are none.
        """
        ends = [end for end, _ in self.samples]
        lo, hi = bisect_left(ends, t0), bisect_right(ends, t1)
        near = self.samples[bisect_left(ends, t0 - MARGIN_S):bisect_right(ends, t1 + MARGIN_S)]
        near = near or self.samples[max(lo - 1, 0):lo + 1]
        slowdown = sum(k for _, k in near) / len(near) / KERNEL_REF_S
        return slowdown, sum(k for _, k in self.samples[lo:hi])
