"""Machine-speed gauge: a fixed reference kernel, timed all through a pass.

The benchmark runs on shared hosts whose speed changes by up to 2x for
fractions of a second to minutes at a time, so two runs of the same code can
disagree by more than any useful regression bound. While a pass runs, the
gauge times a fixed kernel every ``INTERVAL_S`` (from a ``SIGALRM`` handler,
so it needs no hook in the program), and reports the work between two kernel
runs at reference speed:

    scaled = measured * REFERENCE_MS / (mean of the two kernel times around it)

that is, the time the work would take on a machine where the kernel takes
``REFERENCE_MS``. The kernel's own time is left out of both. The kernel is
the benchmark's code and imports nothing from proxidtr, so a change to the
program moves scaled times exactly as much as measured ones, while a host
slowdown, which stretches the kernel and the program alike, largely cancels.
It mixes interpreted Python with small numpy calls, the kind of work most of
proxidtr's time goes to.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import time

import numpy as np

REFERENCE_MS = 7.0  # about the kernel's time on a 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4)
INTERVAL_S = 0.1

_PY_STEPS = 12_000
_NP_STEPS = 1_200
_TABLE = {i: float(i) for i in range(1024)}
_VEC = np.linspace(0.0, 1.0, 16)
_MAT = _VEC.reshape(4, 4)


def kernel() -> float:
    total = 0.0
    for i in range(_PY_STEPS):
        total += _TABLE[i & 1023] * i
    for _ in range(_NP_STEPS):
        total += float((_VEC * _VEC).sum()) + float((_MAT @ _MAT)[0, 0])
    return total


class Gauge:
    def __init__(self):
        self.marks: list[tuple[float, float]] = []  # (start, end) of each kernel run, in time order

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        self.marks.append((start, time.perf_counter()))

    @contextlib.contextmanager
    def running(self, interval_s: float = INTERVAL_S):
        """Sample now, every ``interval_s`` of the block, and at its end."""
        def tick(signum, frame):
            self.sample()
            signal.setitimer(signal.ITIMER_REAL, interval_s)

        self.sample()
        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, interval_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def measure(self, start: float, end: float) -> tuple[float, float]:
        """(measured, scaled) seconds of work in ``[start, end]``, kernel runs
        left out; the interval must lie between the first and last sample."""
        marks = self.marks
        if not marks or start < marks[0][1] or end > marks[-1][0]:
            raise ValueError("the interval is not covered by kernel samples")
        measured = scaled = 0.0
        k = max(0, bisect.bisect_right(marks, (start,)) - 1)
        while k + 1 < len(marks) and marks[k][1] < end:
            (a0, a1), (b0, b1) = marks[k], marks[k + 1]
            work = max(0.0, min(b0, end) - max(a1, start))
            measured += work
            scaled += work * 2e-3 * REFERENCE_MS / ((a1 - a0) + (b1 - b0))
            k += 1
        return measured, scaled

    def factors(self) -> list[float]:
        """Machine speed over reference speed, per sample: below 1 while the
        kernel runs slower than ``REFERENCE_MS``."""
        return [1e-3 * REFERENCE_MS / (end - start) for start, end in self.marks]
