"""The host's speed while the program runs, from a fixed piece of work.

On a host whose cores are shared with other tenants, the same code can run
up to ~2x slower from one minute to the next and ~1.5x slower from one
second to the next, often within one operation (bench/README.md). CPU time
tracks wall time, so the process is not descheduled; each instruction takes
longer. A Sampler times a small fixed piece of work every INTERVAL_S from a
SIGALRM handler, that is, in the middle of the program's own code. An
operation's time is then scaled by REFERENCE_S / (the median time of the
samples taken during it and in the WINDOW_S before it), so it reads as
on a host where the work takes REFERENCE_S, and the handler's own time is
taken out. A change to the program moves the scaled time as it moves the
raw one, while the tenants' load mostly cancels.

The work is written like the program's hot loops (math calls and a frozen
dataclass per point), because contention slows different kinds of code by
different factors.
"""
from __future__ import annotations

import math
import signal
import statistics
import time
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

INTERVAL_S = 0.010
WINDOW_S = 0.020  # short operations take their speed from the samples before them
REFERENCE_S = 200e-6  # the work's typical time on the reference host (bench/README.md)


@dataclass(frozen=True)
class _Point:
    x: float
    q: float
    h: float


def _work() -> float:
    acc = 0.0
    for i in range(1, 100):
        x = i * 1e-3
        q = 1.0 - math.exp(-x)
        acc += _Point(x, q, -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)).h
    return acc


class Sampler:
    """Use as a context manager around the timed loop; it owns SIGALRM."""

    def __init__(self):
        self.at = array("d")  # when each sample started
        self.work_s = array("d")  # how long the work took
        self.cost_s = array("d")  # how long the handler took

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _work()
        end = time.perf_counter()
        self.at.append(start)
        self.work_s.append(end - start)
        self.cost_s.append(time.perf_counter() - start)

    def scaled(self, start: float, end: float) -> tuple:
        """(time of [start, end] without the handler, scale factor), from
        the samples taken in [start - WINDOW_S, end]."""
        lo, hi = bisect_left(self.at, start), bisect_right(self.at, end)
        own = end - start - sum(self.cost_s[lo:hi])
        lo = bisect_left(self.at, start - WINDOW_S)
        if hi <= lo:
            return own, 1.0
        return own, REFERENCE_S / statistics.median(self.work_s[lo:hi])
