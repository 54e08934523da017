"""Seconds at a fixed reference speed.

The machines this benchmark runs on are shared: the speed of a core
changes by up to a factor of two over tens of seconds, with what other
tenants do, and no run length averages that out.  So the benchmark
reports every timing as the time it would have taken at a fixed
reference speed.  Between units of timed work, whenever ``INTERVAL_S``
has passed since the last time, it times a fixed piece of pure-Python
work of its own (``reference_work``, median of three calls); each timed
interval is then
scaled by ``REFERENCE_S`` over the mean reference time measured within
``WINDOW_S`` of it.

``reference_work`` does not touch orthoql, so no change to the package
can speed it up or slow it down; the garbage collector is paused while
it runs, so the package's heap cannot either.
"""

from __future__ import annotations

import bisect
import gc
import time
from fractions import Fraction

# Median time of one ``reference_work()`` call on the machine the
# benchmark was written on (2-core VM, CPython 3.11.7).
REFERENCE_S = 0.00125
INTERVAL_S = 0.1
WINDOW_S = 0.3


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def reference_work() -> int:
    """Fixed work with orthoql's instruction mix: Fraction arithmetic,
    small-object allocation, tuples, dicts and method calls."""
    acc = Fraction(0)
    table = {}
    rows = []
    for i in range(1, 120):
        q = Fraction(i % 7 - 3, i % 5 + 1) * Fraction(i, i + 1) + acc
        acc = Fraction(q.numerator % 100003, q.denominator % 99991 or 1)
        node = _Node(i % 17, acc)
        table[node.key] = table.get(node.key, 0) + (node.value.numerator & 0xFFFF)
        rows.append(tuple(x * x - 1 for x in range(i % 6 + 1)))
    return len(rows) + sum(table.values())


def reference_time() -> float:
    """Median seconds of three ``reference_work`` calls, garbage
    collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            reference_work()
            times.append(time.perf_counter() - t0)
        return sorted(times)[1]
    finally:
        if enabled:
            gc.enable()


class ReferenceClock:
    """Collects timed intervals and reference timings taken among them,
    and converts the intervals to reference seconds."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.intervals: list[tuple[float, float]] = []

    def tick(self, force: bool = False) -> None:
        """Time the reference work if ``INTERVAL_S`` has passed since the
        last timing (or when forced)."""
        now = time.perf_counter()
        if force or not self.samples or now - self.samples[-1][0] >= INTERVAL_S:
            self.samples.append((now, reference_time()))

    def record(self, start: float, seconds: float) -> None:
        self.intervals.append((start, seconds))

    def converted(self) -> list[float]:
        """Every recorded interval, in reference seconds, in order."""
        times = [t for t, _ in self.samples]
        out = []
        for start, seconds in self.intervals:
            lo = bisect.bisect_left(times, start - WINDOW_S)
            hi = bisect.bisect_right(times, start + seconds + WINDOW_S)
            near = [s for _, s in self.samples[lo:hi]]
            if not near:
                near = [self.samples[max(bisect.bisect_right(times, start) - 1, 0)][1]]
            out.append(seconds * REFERENCE_S * len(near) / sum(near))
        return out


def timed_in_reference(fn) -> float:
    """Run ``fn`` once; return its time in reference seconds, from two
    reference timings before it and two after it."""
    clock = ReferenceClock()
    clock.tick(force=True)
    clock.tick(force=True)
    t0 = time.perf_counter()
    fn()
    clock.record(t0, time.perf_counter() - t0)
    clock.tick(force=True)
    clock.tick(force=True)
    return clock.converted()[0]
