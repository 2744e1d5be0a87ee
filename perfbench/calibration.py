"""Timing calibration: rescales measured seconds to a reference machine speed.

On a shared machine the speed of a fixed loop drifts by tens of percent over
tens of seconds (measured on the 2-vCPU machine the benchmark was built on:
2-s windows of a fixed busy loop ranged over +-20%, in phases lasting 10-20
s), far more than any regression bound.  Between timed calls the benchmark
times a fixed pure-Python loop, once per CAL_EVERY_S that passed (at most
CAL_BURST times in a row), and rescales each timed call by CAL_REFERENCE_S
over the median loop time within CAL_WINDOW_S of the call: the call's time
on a machine where the loop takes CAL_REFERENCE_S.  The loop is benchmark
code, so a program change never moves it.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from dataclasses import dataclass

CAL_LOOP = 8000
CAL_EVERY_S = 0.02
CAL_BURST = 10
CAL_WINDOW_S = 0.25
CAL_MIN_SAMPLES = 5
CAL_REFERENCE_S = 5e-4


@dataclass
class Op:
    """One timed call."""

    start: float  # perf_counter() when the call began
    seconds: float
    units: int
    failed: int = 0


def calibration_loop() -> float:
    t0 = time.perf_counter()
    x = 0.0
    for i in range(CAL_LOOP):
        x += math.sqrt(i) * 1e-9
    return time.perf_counter() - t0


class Pacer:
    """Times the calibration loop between timed calls."""

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self._last = time.perf_counter()

    def tick(self) -> None:
        due = int((time.perf_counter() - self._last) / CAL_EVERY_S)
        for _ in range(min(due, CAL_BURST)):
            self.times.append(time.perf_counter())
            self.durations.append(calibration_loop())
        if due:
            self._last = time.perf_counter()

    def scale(self, op: Op) -> float:
        """Factor from ``op``'s seconds to reference seconds."""
        lo = bisect.bisect_left(self.times, op.start - CAL_WINDOW_S)
        hi = bisect.bisect_right(self.times, op.start + op.seconds + CAL_WINDOW_S)
        if hi - lo < CAL_MIN_SAMPLES:
            mid = bisect.bisect_left(self.times, op.start)
            lo = max(0, min(lo, mid - CAL_MIN_SAMPLES))
            hi = min(len(self.times), max(hi, mid + CAL_MIN_SAMPLES))
        return CAL_REFERENCE_S / statistics.median(self.durations[lo:hi])
