"""The host's speed, sampled while an operation runs.

This benchmark runs on a few cores of a shared host whose speed drifts by up
to about 2x, in phases lasting from under a second to minutes.  No statistic
over a run's operations removes that: a whole run can fall in one phase.  So
while an operation runs, a profiling timer interrupts it every ``INTERVAL_S``
of CPU time and times a short fixed loop of exact rational sums (the kind of
work the program's kernel does).  Each reading stands for the speed of the
interval around it, so the operation's own time, weighted by the reciprocal
of the readings, is its work in units of that loop: a slow phase lengthens
the operation and the readings alike.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.2   # CPU time between samples; each costs about 2.5% of it
LOOP_TERMS = 1200


def probe_loop() -> float:
    """Wall time of the fixed loop."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, LOOP_TERMS):
        acc += Fraction(i % 97 + 1, i % 89 + 1)
    return time.perf_counter() - t0


class HostProbe:
    """Context manager: sample ``probe_loop`` on SIGPROF while the body runs.

    The body must run in the main thread and in Python often enough for the
    handler to run; numpy calls of a few milliseconds only delay a sample.
    """

    def __init__(self):
        self.readings: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        self.readings.append(probe_loop())

    def __enter__(self) -> HostProbe:
        self.readings = []
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        return False

    def split(self, wall_s: float) -> tuple[float, float]:
        """``wall_s`` measured around the body, as (the body's own seconds,
        its work in loop units); the samples' time is taken out of both."""
        if not self.readings:
            raise ValueError("no sample: the body ran for less than "
                             f"{INTERVAL_S} s of CPU time")
        own = wall_s - sum(self.readings)
        return own, own * statistics.fmean(1.0 / r for r in self.readings)
