"""Host speed, measured between ops by a fixed unit of pure-Python work.

On a shared host the speed of the interpreter drifts by a fifth or more over
seconds and minutes (other tenants, frequency changes), and the drift is
shared by everything the process runs.  A run therefore times `unit()`, a
stdlib-only piece of work in the library's style (Fraction arithmetic, small
tuples, dict and list operations) that never touches the code under test,
every few tens of milliseconds outside the timed ops.  Every raw time is then
scaled to the reference host, one on which `unit()` takes REFERENCE_UNIT_S:

    time at reference speed = raw time * REFERENCE_UNIT_S / local unit time

where the local unit time is the median of the samples taken within
WINDOW_S of the op.  A change to the library moves the scaled times as much
as the raw ones, since the unit does not run library code; a change of the
host's speed moves both the op and the unit and cancels.  The raw figures
are kept in the run's metadata.
"""
from __future__ import annotations

import bisect
import statistics
from fractions import Fraction
from time import perf_counter

# unit() took 0.7 to 1.2 ms on the shared 2-vCPU host the benchmark was
# written on, so scaled figures read close to raw ones there
REFERENCE_UNIT_S = 1.0e-3
WINDOW_S = 1.0  # samples this close to an op set its speed
EVERY_S = 0.05  # op time between two samples
REPEATS = 3  # a sample is the fastest of this many units: an interrupt lands in one


def unit() -> int:
    acc = Fraction(0)
    table: dict[tuple[int, int], Fraction] = {}
    for i in range(1, 115):
        term = Fraction(i % 7 - 3, i)
        acc += term * term - Fraction(1, 2 * i + 1)
        table[(i % 11, i % 13)] = acc
    keys = sorted(table, key=lambda k: (k[1], -k[0]))
    return sum(table[k].numerator % 101 for k in keys[::3])


def sample() -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = perf_counter()
        unit()
        best = min(best, perf_counter() - start)
    return best


class SpeedLog:
    """Unit-time samples of one run, by the perf_counter() time they were taken."""

    def __init__(self):
        self.at: list[float] = []
        self.unit_s: list[float] = []

    def take(self) -> None:
        value = sample()
        self.at.append(perf_counter())
        self.unit_s.append(value)

    def scale(self, start: float, end: float) -> float:
        """The factor that turns a raw time spent in [start, end] into
        reference-host time."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if hi - lo < 2:  # too few samples close by: take the nearest ones
            mid = bisect.bisect_left(self.at, (start + end) / 2)
            lo, hi = max(0, mid - 2), min(len(self.at), mid + 2)
        if lo >= hi:
            raise ValueError("no host-speed sample was taken")
        return REFERENCE_UNIT_S / statistics.median(self.unit_s[lo:hi])
