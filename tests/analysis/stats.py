"""Distribution summaries the figure benchmarks print: summary
statistics, CCDF points (Figure 10), rank-ordered load curves and the
top-decile skew (Figure 15)."""

from __future__ import annotations

import math
from typing import Sequence


def summarize(values: Sequence[float]) -> dict[str, float]:
    """Mean, standard deviation, min, max, and median of a sample."""
    if not values:
        raise ValueError("no values")
    ordered = sorted(values)
    n = len(ordered)
    mean = sum(ordered) / n
    variance = sum((value - mean) ** 2 for value in ordered) / n
    middle = n // 2
    if n % 2:
        median = ordered[middle]
    else:
        median = (ordered[middle - 1] + ordered[middle]) / 2
    return {
        "mean": mean,
        "std": math.sqrt(variance),
        "min": ordered[0],
        "max": ordered[-1],
        "median": median,
        "count": float(n),
    }


def ccdf_points(values: Sequence[float]) -> list[tuple[float, float]]:
    """Empirical complementary CDF: points ``(v, P(X > v))``."""
    if not values:
        raise ValueError("no values")
    ordered = sorted(values)
    n = len(ordered)
    points: list[tuple[float, float]] = []
    index = 0
    while index < n:
        value = ordered[index]
        # advance past duplicates
        while index < n and ordered[index] == value:
            index += 1
        points.append((value, (n - index) / n))
    return points


def rank_ordered(values: Sequence[float]) -> list[float]:
    """Values sorted descending -- the x-axis ordering of Figure 15."""
    return sorted(values, reverse=True)


def lorenz_skew(values: Sequence[float]) -> float:
    """Fraction of total mass held by the top 10% of values.

    A compact skewness measure for load distributions: 0.1 means
    perfectly balanced; values near 1 mean extreme hot-spots.
    """
    if not values:
        raise ValueError("no values")
    ordered = sorted(values, reverse=True)
    total = sum(ordered)
    if total == 0:
        return 0.0
    top = max(1, len(ordered) // 10)
    return sum(ordered[:top]) / total
