"""The speed a shared machine gives this process, sampled while the
benchmark runs, so that op times can be corrected for it.

On a shared 2-vCPU VM the same pure-Python loop ran at speeds up to
1.9x apart, in stretches from a few seconds to tens of seconds, and
from run to run this spread the timings nearly as wide as the
benchmark's bounds.  A gauge sample times a fixed walk along a fixed
random permutation of 4096 points, the kind of work the library does on
dart permutations.  An op's time is scaled by REFERENCE_NS over the
mean of the samples taken just before and just after it, which gives
the time the op would take at the reference speed of the walk.

The walk is benchmark code, so a change to the library moves the
corrected times as it moves the wall clock at a fixed machine speed.
Of the gauges tried, this one followed the library's slowdowns best: a
walk over 2**16 or 2**20 points slowed more than the library did under
contention, and an arithmetic loop less.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter_ns

STEPS = 3000
REPEATS = 3
# about the time of one gauge walk when a 2-vCPU Intel Xeon VM at
# 2.0 GHz (Python 3.11) ran it at full speed; it only sets the unit of
# the corrected times
REFERENCE_NS = 150_000
# at most one sample per this much wall time between ops
SAMPLE_EVERY_NS = 10_000_000


_PERMUTATION = list(range(4096))
random.Random(0).shuffle(_PERMUTATION)


def _walk() -> int:
    j = s = 0
    for _ in range(STEPS):
        j = _PERMUTATION[j]
        s += j & 7
    return s


class SpeedGauge:
    def __init__(self):
        self.samples: list[int] = []
        self._last = 0

    def sample(self) -> int:
        """Take a sample (the median of a few gauge walks) and return its
        index."""
        times = []
        for _ in range(REPEATS):
            start = perf_counter_ns()
            _walk()
            times.append(perf_counter_ns() - start)
        self.samples.append(statistics.median(times))
        self._last = perf_counter_ns()
        return len(self.samples) - 1

    def before_op(self) -> int:
        """Index of the latest sample, taking a new one if the latest is
        older than SAMPLE_EVERY_NS.  The sample after it is taken after
        the op, by the next before_op or by ``sample``."""
        if not self.samples or perf_counter_ns() - self._last >= SAMPLE_EVERY_NS:
            return self.sample()
        return len(self.samples) - 1

    def factor(self, before: int) -> float:
        """Reference speed over the speed around an op whose preceding
        sample is ``before``."""
        around = self.samples[before:before + 2]
        return REFERENCE_NS / statistics.fmean(around)
