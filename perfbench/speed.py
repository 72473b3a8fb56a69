"""The speed the machine gives this process, sampled while jobs run.

On a shared VM the speed drifts by a quarter within a minute, and CPU time
drifts with it. A timer signal times a fixed piece of reference work every
INTERVAL seconds, in the middle of jobs too. A job's time is then scaled by
the reference speed measured during it, and the time the samples took is
taken out of the job's own time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# Nominal seconds of reference_work(), about its median on a 2-core x86 VM
# at Python 3.11; scaled times are at this reference speed.
REFERENCE_SECONDS = 0.005
INTERVAL = 0.1
_MASK = (1 << 2048) - 1


def reference_work() -> int:
    """Fixed pure-Python work that touches no numsgps code: list indexing,
    integer arithmetic, a dict and big-integer shifts. Its data fit in the
    caches, so the program's own memory use does not slow it."""
    xs = list(range(512))
    seen = {}
    acc = total = 1
    for i in range(9000):
        j = (i * 7919) % 512
        total += xs[j] * (i & 15)
        seen[j] = total
        acc = ((acc << 5) | i) & _MASK
    return total ^ acc


class SpeedProbe:
    """Context manager that samples the reference time every INTERVAL s."""

    def __init__(self):
        self.times: list[float] = []  # when each sample started
        self.seconds: list[float] = []  # how long it took
        self.wall = 0.0  # total wall and CPU time spent sampling
        self.cpu = 0.0

    def sample(self, *_) -> None:
        start, cpu = time.perf_counter(), time.process_time()
        reference_work()
        took = time.perf_counter() - start
        self.times.append(start)
        self.seconds.append(took)
        self.wall += took
        self.cpu += time.process_time() - cpu

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def speed(self, start: float, end: float) -> float:
        """Reference speed over [start, end], nominal = 1: the median of the
        samples taken in it and the one on either side."""
        lo = max(bisect.bisect_left(self.times, start) - 1, 0)
        hi = bisect.bisect_right(self.times, end) + 1
        return REFERENCE_SECONDS / statistics.median(self.seconds[lo:hi])
