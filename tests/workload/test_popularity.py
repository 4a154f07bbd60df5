"""Unit tests for popularity models (Figures 9 and 10)."""

import random

import pytest

from repro.workload.popularity import (
    PAPER_CCDF_EXPONENT,
    PowerLawPopularity,
    ZipfPopularity,
)
from tests.workload.popularity import empirical_rank_probabilities, fitted_ccdf


class TestPowerLaw:
    def test_paper_constants_at_ten_thousand(self):
        """The published c=0.063 is the n=10,000 normalization."""
        model = PowerLawPopularity.for_population(10_000)
        assert model.coefficient == pytest.approx(0.0631, abs=0.0005)
        assert model.exponent == PAPER_CCDF_EXPONENT

    def test_cdf_monotone_and_normalized(self):
        model = PowerLawPopularity.for_population(1_000)
        previous = 0.0
        for rank in range(1, 1_001, 37):
            value = model.cdf(rank)
            assert value >= previous
            previous = value
        assert model.cdf(1_000) == 1.0

    def test_ccdf_complementary(self):
        model = PowerLawPopularity.for_population(500)
        for rank in (1, 10, 100, 500):
            assert model.ccdf(rank) == pytest.approx(1 - model.cdf(rank))

    def test_probability_sums_to_one(self):
        model = PowerLawPopularity.for_population(200)
        total = sum(model.probability(rank) for rank in range(1, 201))
        assert total == pytest.approx(1.0)

    def test_head_is_heavy(self):
        model = PowerLawPopularity.for_population(10_000)
        # "A few articles appear in many queries": rank 1 carries ~6% mass.
        assert model.probability(1) == pytest.approx(0.063, abs=0.001)
        assert model.probability(1) > 100 * model.probability(5_000)

    def test_sampling_matches_distribution(self):
        model = PowerLawPopularity.for_population(100)
        rng = random.Random(42)
        samples = [model.sample(rng) for _ in range(50_000)]
        assert all(1 <= rank <= 100 for rank in samples)
        empirical_p1 = samples.count(1) / len(samples)
        assert empirical_p1 == pytest.approx(model.probability(1), rel=0.1)

    def test_sampling_deterministic_in_seed(self):
        model = PowerLawPopularity.for_population(100)
        first = [model.sample(random.Random(7)) for _ in range(10)]
        second = [model.sample(random.Random(7)) for _ in range(10)]
        assert first == second

    def test_rank_validation(self):
        model = PowerLawPopularity.for_population(10)
        with pytest.raises(ValueError):
            model.cdf(0)
        with pytest.raises(ValueError):
            model.probability(11)

    def test_rejects_non_normalizable(self):
        with pytest.raises(ValueError):
            PowerLawPopularity(100, coefficient=0.001, exponent=0.3)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            PowerLawPopularity(0)
        with pytest.raises(ValueError):
            PowerLawPopularity(10, coefficient=-1)

    def test_population_one(self):
        model = PowerLawPopularity.for_population(1)
        assert model.sample(random.Random(0)) == 1
        assert model.probability(1) == pytest.approx(1.0)


class TestZipf:
    def test_probabilities_decrease(self):
        model = ZipfPopularity(100, s=1.0)
        assert model.probability(1) > model.probability(2) > model.probability(50)

    def test_normalized(self):
        model = ZipfPopularity(50, s=0.7)
        assert sum(model.probability(rank) for rank in range(1, 51)) == pytest.approx(1.0)

    def test_cdf_reaches_one(self):
        assert ZipfPopularity(10).cdf(10) == pytest.approx(1.0)

    def test_sampling_range(self):
        model = ZipfPopularity(20, s=1.2)
        rng = random.Random(3)
        assert all(1 <= model.sample(rng) <= 20 for _ in range(1_000))

    def test_exponent_controls_skew(self):
        flat = ZipfPopularity(100, s=0.3)
        steep = ZipfPopularity(100, s=1.5)
        assert steep.probability(1) > flat.probability(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfPopularity(0)
        with pytest.raises(ValueError):
            ZipfPopularity(5, s=0)


class TestHelpers:
    def test_fitted_ccdf_series(self):
        series = fitted_ccdf(100, coefficient=100**-0.3)
        assert series[0][0] == 1
        assert series[-1] == (100, 0.0)
        values = [value for _, value in series]
        assert values == sorted(values, reverse=True)

    def test_empirical_rank_probabilities(self):
        probs = empirical_rank_probabilities([1, 1, 2, 4], population=5)
        assert probs == [0.5, 0.25, 0.0, 0.25, 0.0]

    def test_empirical_validation(self):
        with pytest.raises(ValueError):
            empirical_rank_probabilities([])
        with pytest.raises(ValueError):
            empirical_rank_probabilities([7], population=5)
