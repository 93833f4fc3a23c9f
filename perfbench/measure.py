"""Statistics the benchmark reports: medians, the tail percentile, self time.

Pure functions on plain numbers; nothing here imports subeq.
"""
from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10  # samples that must lie beyond a reported tail percentile


def median(xs):
    return statistics.median(xs)


def tail_percentile(samples, cap: int = 90):
    """Highest whole percentile q <= cap with at least 10 samples beyond it.

    Nearest-rank definition: the q-th percentile of n sorted samples is the
    sample of rank ceil(q n / 100).  Returns ``(q, value, n)``, or ``None``
    when there are fewer than 11 samples, so no percentile qualifies.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return None
    for q in range(cap, 0, -1):
        rank = max(1, math.ceil(q * n / 100))
        if n - rank >= TAIL_BEYOND:
            return q, xs[rank - 1], n
    return None


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals
                     if e > start and s < end)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(start: float, end: float, child_intervals) -> float:
    """A span's duration minus the part of it that its children cover."""
    return (end - start) - covered(start, end, child_intervals)
