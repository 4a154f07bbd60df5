"""Unit tests for distribution helpers and streaming quantile collectors."""

import random

import pytest

from repro.analysis.stats import ExactQuantiles, LogBucketQuantiles, percentile
from tests.analysis.stats import ccdf_points, lorenz_skew, rank_ordered, summarize


class TestSummarize:
    def test_basic(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0])
        assert stats["mean"] == 2.5
        assert stats["min"] == 1.0 and stats["max"] == 4.0
        assert stats["median"] == 2.5
        assert stats["count"] == 4

    def test_odd_median(self):
        assert summarize([3.0, 1.0, 2.0])["median"] == 2.0

    def test_std(self):
        stats = summarize([2.0, 2.0, 2.0])
        assert stats["std"] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        assert percentile(values, 0.50) == 50
        assert percentile(values, 0.95) == 95
        assert percentile(values, 0.99) == 99

    def test_extremes(self):
        assert percentile([5.0, 1.0, 9.0], 0.0) == 1.0
        assert percentile([5.0, 1.0, 9.0], 1.0) == 9.0

    def test_unsorted_input(self):
        assert percentile([30.0, 10.0, 20.0], 0.5) == 20.0

    def test_single_value(self):
        assert percentile([7.0], 0.99) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_fraction_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


class TestCCDF:
    def test_points(self):
        points = ccdf_points([1, 2, 2, 3])
        assert points == [(1, 0.75), (2, 0.25), (3, 0.0)]

    def test_monotone_decreasing(self):
        points = ccdf_points([5, 1, 3, 3, 9, 2])
        values = [p for _, p in points]
        assert values == sorted(values, reverse=True)

    def test_single_value(self):
        assert ccdf_points([7]) == [(7, 0.0)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ccdf_points([])


class TestExactQuantiles:
    def test_matches_batch_percentile_bit_for_bit(self):
        rng = random.Random(11)
        samples = [rng.expovariate(0.01) for _ in range(5_000)]
        collector = ExactQuantiles()
        for sample in samples:
            collector.add(sample)
        assert collector.mean == sum(samples) / len(samples)
        for fraction in (0.0, 0.25, 0.50, 0.95, 0.99, 1.0):
            assert collector.percentile(fraction) == percentile(
                samples, fraction
            )

    def test_len_and_count(self):
        collector = ExactQuantiles()
        assert collector.count == 0
        collector.add(1.0)
        collector.add(2.0)
        assert collector.count == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ExactQuantiles().percentile(0.5)
        with pytest.raises(ValueError):
            ExactQuantiles().mean


class TestLogBucketQuantiles:
    def test_percentiles_within_relative_error(self):
        rng = random.Random(23)
        samples = [rng.expovariate(0.005) for _ in range(50_000)]
        sketch = LogBucketQuantiles()
        for sample in samples:
            sketch.add(sample)
        bound = (1.02 - 1.0) / (1.02 + 1.0)  # (gamma - 1) / (gamma + 1)
        assert bound < 0.01  # just under 1% at the default gamma
        for fraction in (0.25, 0.50, 0.90, 0.95, 0.99):
            exact = percentile(samples, fraction)
            estimate = sketch.percentile(fraction)
            assert abs(estimate - exact) <= bound * exact

    def test_mean_is_exact(self):
        samples = [1.5, 2.5, 100.0, 0.25]
        sketch = LogBucketQuantiles()
        for sample in samples:
            sketch.add(sample)
        assert sketch.mean == sum(samples) / len(samples)

    def test_extremes_are_exact(self):
        sketch = LogBucketQuantiles()
        for sample in (3.0, 7.0, 19.0):
            sketch.add(sample)
        assert sketch.percentile(0.0) == 3.0
        assert sketch.percentile(1.0) == 19.0

    def test_memory_is_sample_count_independent(self):
        rng = random.Random(5)
        sketch = LogBucketQuantiles()
        for _ in range(200_000):
            sketch.add(rng.uniform(0.1, 10_000.0))
        # Nine decades fit in ~1,200 buckets; five decades in far fewer.
        assert len(sketch.to_state()["buckets"]) < 1_000
        assert sketch.count == 200_000

    def test_zero_samples_counted(self):
        sketch = LogBucketQuantiles()
        for sample in (0.0, 0.0, 0.0, 5.0):
            sketch.add(sample)
        assert sketch.percentile(0.5) == 0.0
        assert sketch.percentile(1.0) == 5.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LogBucketQuantiles().add(-1.0)

    def test_bad_gamma_rejected(self):
        with pytest.raises(ValueError):
            LogBucketQuantiles(gamma=1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LogBucketQuantiles().percentile(0.5)


class TestRankOrderedAndSkew:
    def test_rank_ordered(self):
        assert rank_ordered([1, 3, 2]) == [3, 2, 1]

    def test_lorenz_skew_uniform(self):
        assert lorenz_skew([1.0] * 100) == pytest.approx(0.1)

    def test_lorenz_skew_concentrated(self):
        values = [100.0] + [0.0] * 99
        assert lorenz_skew(values) == pytest.approx(1.0)

    def test_lorenz_skew_zero_mass(self):
        assert lorenz_skew([0.0, 0.0]) == 0.0

    def test_lorenz_empty_rejected(self):
        with pytest.raises(ValueError):
            lorenz_skew([])
