"""Elapsed time in reference seconds: wall time corrected for host speed.

The benchmark runs on shared virtual machines whose speed for the same
pure-Python work can swing by a factor of two within a minute, as other
tenants load the host; that swing hits process CPU time just as much as
wall time.  So a fixed unit of exact rational arithmetic, the probe, is
timed at both ends of every measured interval and, from a SIGALRM handler,
every ``PERIOD_S`` seconds inside it.  Each stretch of wall time between
two probes is weighted by ``REFERENCE_PROBE_S`` over the mean duration of
the probes at its ends: a second on a host running at half speed counts
as half a reference second.  Time spent in the probes is excluded from
both the wall and the reference totals.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

PROBE_ITERATIONS = 400
# The probe's typical (median) duration on the 2-core x86-64 VM, CPython
# 3.11, that the benchmark was built on.  It only sets the scale: a
# reference second is a wall second there at its typical speed.
REFERENCE_PROBE_S = 0.0015
PERIOD_S = 0.025


def probe():
    """Seconds one unit of Fraction arithmetic takes now."""
    start = perf_counter()
    acc = Fraction(0)
    for i in range(1, PROBE_ITERATIONS):
        acc += Fraction(i % 97 + 1, i % 89 + 2)
    return perf_counter() - start


class HostClock:
    """Accumulates wall and reference seconds while running.  Use as a
    context manager and take differences of ``read()``."""

    def __init__(self):
        self.wall_s = 0.0
        self.reference_s = 0.0
        self._mark = None
        self._last = None
        self._busy = False
        self._previous_handler = None

    def _tick(self, tries):
        self._busy = True
        start = perf_counter()
        p = statistics.median(probe() for _ in range(tries))
        segment = start - self._mark
        self.wall_s += segment
        self.reference_s += segment * REFERENCE_PROBE_S * 2 / (self._last + p)
        self._last = p
        self._mark = perf_counter()
        self._busy = False

    def _on_alarm(self, _signum, _frame):
        if not self._busy:
            self._tick(1)

    def read(self):
        """(wall seconds, reference seconds) accumulated so far."""
        self._tick(3)
        return self.wall_s, self.reference_s

    def __enter__(self):
        self._last = statistics.median(probe() for _ in range(3))
        self._mark = perf_counter()
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        return False
