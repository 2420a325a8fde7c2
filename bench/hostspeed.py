"""The host's current speed, from a fixed job that runs no nilbij code.

A shared virtual machine can change speed by up to about 2x, in
phases that last from tens of seconds to minutes, and every workload
slows with it.  Each timed unit is therefore paired with this job,
timed just before and just after it, and the benchmark reports rates
scaled to a host on which the job takes ``REFERENCE_S``.  Units of a
second or more can also time the job inside them, from a timer signal,
so a change of phase within the unit is seen too.
A change to nilbij cannot move the job, so it moves a scaled rate
exactly as much as the raw one.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from dataclasses import dataclass

# Seconds the job takes on the reference host; only sets the scale.
REFERENCE_S = 0.005

_TABLE = tuple(tuple((a * b) % 5 for b in range(5)) for a in range(5))


@dataclass(frozen=True)
class _Row:
    """A validated value object, like nilbij's, built in the job's loop."""

    entries: tuple

    def __post_init__(self) -> None:
        if any(not 0 <= x < 5 for x in self.entries):
            raise ValueError(self.entries)


def _job() -> int:
    """Tuple building, table lookups and small frozen objects: the shape
    of nilbij's inner loops."""
    rows = tuple(tuple((i + j) % 5 for j in range(4)) for i in range(4))
    seen = set()
    for k in range(150):
        cols = tuple(zip(*rows))
        rows = tuple(
            tuple((sum(_TABLE[x][y] for x, y in zip(r, c)) + k) % 5 for c in cols)
            for r in rows
        )
        seen.update(_Row(r) for r in rows)
    return len(seen)


def job_seconds(repeats: int = 3) -> float:
    """Median of ``repeats`` timings of the job.  The cyclic collector is
    off meanwhile, so the size of the workload's heap cannot slow the
    job; the job makes no cycles."""
    times = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            _job()
            times.append(time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(times)


class HostClock:
    """Pairs timed units with the job timed on either side of them and,
    with ``sample_every``, every that many seconds inside them."""

    def __init__(self, sample_every: float | None = None) -> None:
        self._last = job_seconds()
        self._sample_every = sample_every
        self._samples: list[float] = []
        self._previous_handler = None
        self.readings: list[float] = []
        self.paused_s = 0.0

    def start(self) -> None:
        """Mark the start of a timed unit; with ``sample_every``, arm a
        SIGALRM timer that times the job inside the unit."""
        self._samples = []
        self.paused_s = 0.0
        if self._sample_every:
            self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self._sample_every, self._sample_every)

    def stop(self) -> None:
        """Disarm the timer.  ``paused_s`` is then the time the unit spent
        in the job, to take off the unit's time."""
        if self._previous_handler is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self._samples.append(job_seconds(repeats=1))
        self.paused_s += time.perf_counter() - start

    def slowness(self) -> float:
        """How much slower than the reference the host ran since the last
        call: the mean of the job's times before, inside and after the
        unit, over ``REFERENCE_S``.  Call it right after each timed unit."""
        self.stop()
        now = job_seconds()
        jobs = [self._last, *self._samples, now]
        slowness = statistics.fmean(jobs) / REFERENCE_S
        self._last = now
        self._samples = []
        self.readings.append(slowness)
        return slowness
