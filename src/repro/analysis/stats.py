"""Percentiles and streaming quantile collectors.

Two streaming quantile collectors back the experiment driver's
response-time percentiles:

- :class:`ExactQuantiles` accumulates every sample and reproduces
  :func:`percentile` (nearest-rank) and the arithmetic mean bit-for-bit
  -- the default at paper scale, where 50,000 floats are cheap;
- :class:`LogBucketQuantiles` is a DDSketch-style sketch with
  geometrically spaced buckets: constant memory regardless of sample
  count, with a documented relative error bound, for web-scale runs
  where holding 10^6+ samples per metric is the memory bottleneck.
"""

from __future__ import annotations

import math
from typing import Sequence


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of a sample, ``fraction`` in [0, 1].

    ``percentile(xs, 0.5)`` is the nearest-rank median; ``0.0`` maps to
    the minimum and ``1.0`` to the maximum.
    """
    if not values:
        raise ValueError("no values")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction outside [0, 1]")
    ordered = sorted(values)
    rank = math.ceil(fraction * len(ordered))
    return ordered[max(0, rank - 1)]


class ExactQuantiles:
    """Streaming collector with exact nearest-rank percentiles.

    Memory is O(n) -- it keeps every sample -- but ``mean`` and
    ``percentile`` match ``sum(xs)/len(xs)`` and :func:`percentile`
    bit-for-bit, so swapping accumulation lists for this collector
    changes no measured number.
    """

    __slots__ = ("_values",)

    #: Worst-case relative error of ``percentile`` (exact).
    relative_error = 0.0

    def __init__(self) -> None:
        self._values: list[float] = []

    def add(self, value: float) -> None:
        """Record one sample."""
        self._values.append(value)

    @property
    def count(self) -> int:
        """Number of samples recorded so far."""
        return len(self._values)

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples (raises on empty)."""
        values = self._values
        if not values:
            raise ValueError("no values")
        return sum(values) / len(values)

    def percentile(self, fraction: float) -> float:
        """Exact nearest-rank percentile, ``fraction`` in [0, 1]."""
        return percentile(self._values, fraction)


class LogBucketQuantiles:
    """DDSketch-style quantile sketch over geometric buckets.

    A sample ``x > 0`` lands in bucket ``ceil(log_gamma(x))``; the
    bucket covering quantile ``q`` (by nearest rank over the counts) is
    reported as the bucket midpoint ``2 * gamma^i / (gamma + 1)``.  A
    bucket spans ``(gamma^(i-1), gamma^i]``, so the estimate is within a
    **relative error of (gamma - 1) / (gamma + 1)** of the true
    nearest-rank value -- just under 1% at the default ``gamma = 1.02``.
    Estimates are additionally clamped to the observed [min, max], and
    the 0.0 / 1.0 fractions return the exactly-tracked min / max.

    Memory is O(number of distinct buckets): bounded by
    ``log_gamma(max/min)`` regardless of sample count (about 1,200
    buckets across nine decades at the default gamma), versus O(n) for
    the accumulation list it replaces.  The mean is tracked exactly via
    a running sum.
    """

    __slots__ = (
        "_gamma",
        "_log_gamma",
        "_buckets",
        "_zero_count",
        "_count",
        "_sum",
        "_min",
        "_max",
    )

    #: Samples at or below this are counted in the zero bucket.
    _ZERO_THRESHOLD = 1e-9

    def __init__(self, gamma: float = 1.02) -> None:
        if gamma <= 1.0:
            raise ValueError("gamma must be > 1")
        self._gamma = gamma
        self._log_gamma = math.log(gamma)
        self._buckets: dict[int, int] = {}
        self._zero_count = 0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def add(self, value: float) -> None:
        """Record one non-negative sample in its logarithmic bucket."""
        if value < 0:
            raise ValueError("sketch accepts non-negative samples only")
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if value <= self._ZERO_THRESHOLD:
            self._zero_count += 1
            return
        index = math.ceil(math.log(value) / self._log_gamma)
        buckets = self._buckets
        buckets[index] = buckets.get(index, 0) + 1

    @property
    def count(self) -> int:
        """Number of samples recorded so far."""
        return self._count

    @property
    def mean(self) -> float:
        """Exact arithmetic mean of the samples (raises on empty)."""
        if not self._count:
            raise ValueError("no values")
        return self._sum / self._count

    def percentile(self, fraction: float) -> float:
        """Nearest-rank percentile estimate, ``fraction`` in [0, 1]."""
        if not self._count:
            raise ValueError("no values")
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction outside [0, 1]")
        if fraction == 0.0:
            return self._min
        if fraction == 1.0:
            return self._max
        rank = max(1, math.ceil(fraction * self._count))
        if rank <= self._zero_count:
            return 0.0
        remaining = rank - self._zero_count
        for index in sorted(self._buckets):
            remaining -= self._buckets[index]
            if remaining <= 0:
                estimate = (
                    2.0 * self._gamma**index / (self._gamma + 1.0)
                )
                return min(max(estimate, self._min), self._max)
        return self._max  # numeric safety; unreachable when counts agree

    # -- cross-process merging ----------------------------------------------
    #
    # Sketches built in worker processes travel back to the parent as
    # plain state dictionaries and fold together there.  Because the
    # merge is bucket-count addition plus exact min/max/sum folding, it
    # is commutative, and associative on everything percentile() reads
    # (counts, buckets, min, max) -- the property suite pins both.

    def merge(self, other: "LogBucketQuantiles") -> "LogBucketQuantiles":
        """Fold another sketch into this one (in place); returns self.

        Both sketches must use the same ``gamma`` -- bucket indices are
        only comparable on one geometric grid.
        """
        if other._gamma != self._gamma:
            raise ValueError("cannot merge sketches with different gamma")
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count
        self._zero_count += other._zero_count
        self._count += other._count
        self._sum += other._sum
        if other._min < self._min:
            self._min = other._min
        if other._max > self._max:
            self._max = other._max
        return self

    def to_state(self) -> dict:
        """Plain-data snapshot of the sketch (picklable / JSON-safe).

        Bucket indices become strings so the state survives JSON
        round-trips unchanged; :meth:`from_state` is the exact inverse.
        """
        return {
            "gamma": self._gamma,
            "buckets": {str(index): count for index, count in self._buckets.items()},
            "zero_count": self._zero_count,
            "count": self._count,
            "sum": self._sum,
            "min": self._min if self._count else None,
            "max": self._max if self._count else None,
        }

    @classmethod
    def from_state(cls, state: dict) -> "LogBucketQuantiles":
        """Rebuild a sketch from :meth:`to_state` output."""
        sketch = cls(gamma=state["gamma"])
        sketch._buckets = {
            int(index): count for index, count in state["buckets"].items()
        }
        sketch._zero_count = state["zero_count"]
        sketch._count = state["count"]
        sketch._sum = state["sum"]
        if state["min"] is not None:
            sketch._min = state["min"]
        if state["max"] is not None:
            sketch._max = state["max"]
        return sketch
