"""Host-speed calibration for timing on a shared, throttling host.

On a box shared with other tenants the same pure-Python loop can run
1.6x slower for tens of seconds at a time.  :class:`SpeedProbe` samples
a fixed interpreter-bound kernel every half second of wall time (from a
``SIGALRM`` handler, so samples interleave with the workload) and
records its slowdown against :data:`REFERENCE_S`, taking the median of
three kernel runs per sample.  Dividing a host duration by the mean
slowdown over its interval converts it to seconds at the reference
speed, which is what every timed metric reports; the raw durations are
printed beside them.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List

#: Kernel duration, in seconds, at the reference host speed (the fast
#: regime of a 2-vCPU x86-64 box running CPython 3.11).
REFERENCE_S = 0.0026

#: Seconds of wall time between samples while a probe is active.
SAMPLE_INTERVAL_S = 0.5


def kernel() -> int:
    """Interpreter-bound work shaped like the simulator's: dict reads and
    writes, integer arithmetic, method calls."""
    table = {}
    acc = 1
    get = table.get
    for i in range(12_000):
        key = (i * 7) & 1023
        acc = (acc * 31 + get(key, i)) & 0xFFFFF
        table[key & 511] = acc
    return acc


def measure_slowdown(repeats: int = 1) -> float:
    """Kernel duration over :data:`REFERENCE_S`, the median of
    ``repeats`` runs."""
    durations = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        durations.append(time.perf_counter() - start)
    return statistics.median(durations) / REFERENCE_S


class SpeedProbe:
    """Samples host slowdown every :data:`SAMPLE_INTERVAL_S` while active."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.slowdowns: List[float] = []
        self._old_handler = None

    def sample(self) -> None:
        now = time.perf_counter()
        self.slowdowns.append(measure_slowdown(repeats=3))
        self.times.append(now)

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "SpeedProbe":
        self.sample()
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self.sample()

    def slowdown(self, start: float, end: float) -> float:
        """Mean slowdown of the samples taken in ``[start, end]`` (all
        samples if none were)."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        return statistics.fmean(self.slowdowns[lo:hi] or self.slowdowns)

    def normalize(self, start: float, end: float) -> float:
        """``end - start`` in seconds at the reference speed."""
        return (end - start) / self.slowdown(start, end)
