"""Order statistics used by the benchmark.

Latency tails follow one rule: report the highest percentile of the ladder
``TAIL_LADDER`` that still has at least ``MIN_BEYOND`` samples beyond it,
and always report the sample count beside it.  With fewer samples than any
ladder step needs, the tail is the maximum, reported as percentile 100.
"""

from __future__ import annotations

import math
import statistics

TAIL_LADDER = (99.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def nearest_rank(sorted_values, pct: float) -> float:
    """The nearest-rank percentile of an ascending, non-empty sequence."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank ``pct``."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def tail(values) -> tuple[float, float, int]:
    """``(percentile, value, n)`` of the highest justified tail percentile."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        if samples_beyond(n, pct) >= MIN_BEYOND:
            return pct, nearest_rank(ordered, pct), n
    return 100.0, nearest_rank(ordered, 100.0), n


def median(values) -> float:
    return statistics.median(values)


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else math.inf
