"""Summary statistics shared by the runner and the layer report."""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

# Candidate tail percentiles, highest last.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
TAIL_BEYOND = 10


def rank(p: float, n: int) -> int:
    """1-based rank of the p-th percentile of n sorted samples: the sample
    just above the lowest floor(p% of n).  Exact rational arithmetic, so
    ranks at whole-number boundaries do not drift."""
    share = Fraction(p).limit_denominator(10_000) / 100
    return min(n, math.floor(share * n) + 1)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least TAIL_BEYOND samples beyond it.

    With fewer than 2 * TAIL_BEYOND + 1 samples no percentile qualifies and
    p50 stands in, which never reads below the median.
    """
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n - rank(p, n) >= TAIL_BEYOND:
            best = p
    return best


def tail(values) -> tuple[float, float]:
    """(percentile, value) of the tail rule over the samples."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("tail of no samples")
    p = tail_percentile(len(ordered))
    return p, ordered[rank(p, len(ordered)) - 1]


def median(values) -> float:
    return statistics.median(values)


def kind_median(values, kinds) -> float:
    """Geometric mean over op kinds of each kind's median value.

    Every kind weighs the same however often it runs, so a change to the
    layer behind any one kind moves the figure, where the median of a mix
    sits on whichever kind straddles the middle.
    """
    by_kind: dict[str, list[float]] = {}
    for value, kind in zip(values, kinds):
        by_kind.setdefault(kind, []).append(value)
    logs = [math.log(statistics.median(v)) for v in by_kind.values()]
    return math.exp(sum(logs) / len(logs))


def quartile_spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
