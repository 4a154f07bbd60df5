"""Unit tests for least-squares power-law fitting (Section V-C)."""

import math
import random

import pytest

from tests.analysis.powerlaw import fit_power_law


class TestExactFits:
    def test_perfect_power_law_recovered(self):
        ranks = list(range(1, 101))
        probabilities = [0.2 / rank**0.8 for rank in ranks]
        fit = fit_power_law(ranks, probabilities)
        assert fit.k == pytest.approx(0.2, rel=1e-6)
        assert fit.alpha == pytest.approx(0.8, rel=1e-6)
        assert fit.r_squared == pytest.approx(1.0)

    def test_predict(self):
        fit = fit_power_law([1, 2, 4, 8], [1.0, 0.5, 0.25, 0.125])
        assert fit.alpha == pytest.approx(1.0)
        assert fit.predict(16) == pytest.approx(1 / 16)

    def test_noisy_data_still_power_law(self):
        rng = random.Random(5)
        ranks = list(range(1, 201))
        probabilities = [
            (0.1 / rank**0.6) * math.exp(rng.gauss(0, 0.1)) for rank in ranks
        ]
        fit = fit_power_law(ranks, probabilities)
        assert fit.alpha == pytest.approx(0.6, abs=0.05)
        assert fit.is_power_law

    def test_non_power_law_flagged(self):
        ranks = list(range(1, 60))
        rng = random.Random(9)
        probabilities = [abs(rng.gauss(0.5, 0.3)) + 1e-6 for _ in ranks]
        fit = fit_power_law(ranks, probabilities)
        assert not fit.is_power_law

    def test_paper_distribution_fits(self):
        """Sampling the paper's popularity model and fitting recovers a
        power law (the Figure 9 observation)."""
        from repro.workload.popularity import PowerLawPopularity

        model = PowerLawPopularity.for_population(1_000)
        probabilities = [model.probability(rank) for rank in range(1, 1_001)]
        fit = fit_power_law(list(range(1, 1_001)), probabilities)
        assert fit.is_power_law
        # pmf of CDF c*i^a behaves like a power law of exponent 1-a = 0.7.
        assert fit.alpha == pytest.approx(0.7, abs=0.05)


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fit_power_law([1, 2], [0.5])

    def test_zero_probabilities_skipped(self):
        fit = fit_power_law([1, 2, 3, 4], [0.5, 0.0, 0.25 * (2 / 3) ** 1, 0.125])
        assert fit.alpha > 0

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_power_law([1], [0.5])
        with pytest.raises(ValueError):
            fit_power_law([1, 2], [0.5, 0.0])

    def test_degenerate_x(self):
        with pytest.raises(ValueError):
            fit_power_law([3, 3], [0.5, 0.25])

    def test_predict_validates_rank(self):
        fit = fit_power_law([1, 2], [0.5, 0.25])
        with pytest.raises(ValueError):
            fit.predict(0)
