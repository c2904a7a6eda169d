"""Host-speed sampling for the end-to-end times.

The VM the bounds were set on changes speed by 20-40 % within a second
(other tenants share its cores), which is more than the bounds allow.
While the timed ops run, a timer signal calls a fixed kernel that does not
touch torsionlab every PERIOD_S of wall time.  Each op's wall time is
scaled by REFERENCE_NS over the mean kernel time sampled during it.  The
kernel's own share of the wall time, about 3 %, stays in: it is the same
share at any host speed.  A change to the program moves the scaled
times, while a change in host speed moves the kernel with the ops and
cancels.  The raw wall times are printed next to the scaled ones.  When
the work runs in a child process, the samples are taken in the waiting
parent; one_cpu() pins both to one CPU, so the samples describe the CPU
the child runs on.  Work that runs in this process stays unpinned, so the
scheduler can move it off a busy CPU.

The kernel mixes the kinds of work the ops do: integer row operations on
Python lists (the elimination in exact), Fraction arithmetic, and small
numpy vector algebra (nerve and hyperbolic).
"""

from __future__ import annotations

import contextlib
import os
import signal
from fractions import Fraction
from time import perf_counter_ns

import numpy as np

# About the median kernel time on the reference host, a 2-CPU x86-64 VM
# running CPython 3.11.
REFERENCE_NS = 300_000
PERIOD_S = 0.01


def kernel() -> int:
    """About 0.3 ms of fixed work; returns a checksum so nothing is skipped."""
    size = 8
    rows = [[(i * 7 + j * 3) % 11 - 5 for j in range(size)] for i in range(size)]
    for k in range(size):
        pivot = rows[k]
        for i in range(k + 1, size):
            f = rows[i][k]
            rows[i] = [(a * 3 - f * b) % 1009 for a, b in zip(rows[i], pivot)]
    q = sum(Fraction(i, i + 3) for i in range(1, 10))
    v = np.arange(4.0)
    for _ in range(30):
        v = (v * 0.5 + 1.0) / np.sqrt(v @ v + 1.0)
    return sum(map(sum, rows)) + q.numerator % 7 + int(v[0] > 0)


def sample() -> int:
    """Nanoseconds one kernel call takes now."""
    t0 = perf_counter_ns()
    kernel()
    return perf_counter_ns() - t0


class Sampler:
    """Runs the kernel on SIGALRM every PERIOD_S of wall time while active.

    The handler runs in the main thread between bytecodes, and during
    waits on children (interrupted system calls resume), so samples fall
    inside the ops they describe.
    """

    def __init__(self):
        self.samples: list[int] = []  # kernel ns, in order
        self._previous = None

    def _handler(self, signum, frame) -> None:
        self.samples.append(sample())

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, mark: int) -> float:
        """Factor from wall time to reference-speed time for the span since
        the mark.  With no sample in it (a span shorter than PERIOD_S) the
        kernel runs once now."""
        taken = self.samples[mark:] or [sample()]
        return REFERENCE_NS * len(taken) / sum(taken)


@contextlib.contextmanager
def one_cpu():
    """Pin this process, and the children it starts meanwhile, to one CPU."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)
