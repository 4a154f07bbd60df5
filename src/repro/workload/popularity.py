"""Popularity models: power laws over popularity ranks.

Section V-C of the paper observes that author and article request
probabilities in the BibFinder, NetBib, and CiteSeer logs all roughly
follow power laws (Figure 9), fits the BibFinder author distribution by
least squares, and -- after truncating the collection to 10,000 articles
-- arrives at the complementary cumulative distribution function
(Figure 10)::

    F̄(i) = 1 - F(i) = 1 - 0.063 * i**0.3

where ``i`` is the article's popularity rank.  :class:`PowerLawPopularity`
implements exactly that family (CDF ``c * i**a``), with the paper's
fitted constants as defaults; :class:`ZipfPopularity` provides the
classical ``p_i ∝ 1/i**s`` family used for auxiliary distributions
(author productivity, venue sizes).

Sampling uses inverse-transform on the closed-form CDF, so draws are
O(1) and deterministic given the caller's random generator.
"""

from __future__ import annotations

import math
import random

#: Coefficient of the paper's fitted CDF, Section V-C.
PAPER_CCDF_COEFFICIENT = 0.063
#: Exponent of the paper's fitted CDF, Section V-C.
PAPER_CCDF_EXPONENT = 0.3


class PowerLawPopularity:
    """Rank popularity with CDF ``F(i) = c * i**a`` over ranks 1..n.

    With the paper's constants (c=0.063, a=0.3) and n=10,000 articles,
    ``F(n)`` is approximately 0.999: the paper notes that the articles
    beyond the 10,000th "would be requested so seldom that we can
    effectively neglect their existence".  The residual mass is assigned
    to rank n so the distribution sums to one.
    """

    def __init__(
        self,
        population: int,
        coefficient: float = PAPER_CCDF_COEFFICIENT,
        exponent: float = PAPER_CCDF_EXPONENT,
    ) -> None:
        if population < 1:
            raise ValueError("population must be at least 1")
        if coefficient <= 0 or exponent <= 0:
            raise ValueError("coefficient and exponent must be positive")
        if coefficient * population**exponent < 1.0 - 1e-9:
            raise ValueError(
                "CDF never reaches 1 on this population; increase the "
                "coefficient, the exponent, or the population"
            )
        self.population = population
        self.coefficient = coefficient
        self.exponent = exponent

    @classmethod
    def for_population(
        cls, population: int, exponent: float = PAPER_CCDF_EXPONENT
    ) -> "PowerLawPopularity":
        """The paper's family adapted to a finite population.

        Section V-C: "after adapting the parameters of the power-law
        distribution to match the finite population of articles".  Fixing
        ``F(n) = 1`` gives ``c = n**-a``; at n=10,000 and a=0.3 this is
        0.0631 -- the paper's published 0.063.
        """
        return cls(population, population ** (-exponent), exponent)

    def cdf(self, rank: int) -> float:
        """P(popularity rank <= rank)."""
        self._check_rank(rank)
        if rank >= self.population:
            return 1.0
        return min(1.0, self.coefficient * rank**self.exponent)

    def ccdf(self, rank: int) -> float:
        """The paper's Figure 10 curve: ``1 - F(rank)``."""
        return 1.0 - self.cdf(rank)

    def probability(self, rank: int) -> float:
        """Probability mass of one rank."""
        self._check_rank(rank)
        if rank == 1:
            return self.cdf(1)
        return self.cdf(rank) - self.cdf(rank - 1)

    def sample(self, rng: random.Random) -> int:
        """Draw a rank by inverse-transform sampling (1 = most popular)."""
        u = rng.random()
        if self.population > 1 and u >= self.cdf(self.population - 1):
            # Residual mass beyond the analytic CDF belongs to the tail.
            return self.population
        raw = (u / self.coefficient) ** (1.0 / self.exponent)
        rank = max(1, math.ceil(raw))
        return min(rank, self.population)

    def _check_rank(self, rank: int) -> None:
        if not 1 <= rank <= self.population:
            raise ValueError(
                f"rank {rank} outside population [1, {self.population}]"
            )


class ZipfPopularity:
    """Classical Zipf distribution: ``p_i ∝ 1 / i**s`` over ranks 1..n.

    Used for the skewed auxiliary populations of the synthetic corpus
    (how many articles an author writes, how large a venue is) -- the
    phenomena Zipf's law was coined for [21 in the paper].
    """

    def __init__(self, population: int, s: float = 1.0) -> None:
        if population < 1:
            raise ValueError("population must be at least 1")
        if s <= 0:
            raise ValueError("exponent must be positive")
        self.population = population
        self.s = s
        weights = [1.0 / (rank**s) for rank in range(1, population + 1)]
        total = sum(weights)
        self._cumulative: list[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            self._cumulative.append(acc)
        self._cumulative[-1] = 1.0

    def probability(self, rank: int) -> float:
        """Probability mass of one rank under the Zipf model."""
        if not 1 <= rank <= self.population:
            raise ValueError(f"rank {rank} outside [1, {self.population}]")
        previous = self._cumulative[rank - 2] if rank > 1 else 0.0
        return self._cumulative[rank - 1] - previous

    def cdf(self, rank: int) -> float:
        """P(rank' <= rank) under the Zipf model."""
        if not 1 <= rank <= self.population:
            raise ValueError(f"rank {rank} outside [1, {self.population}]")
        return self._cumulative[rank - 1]

    def sample(self, rng: random.Random) -> int:
        """Draw a rank by binary search on the cumulative table."""
        import bisect

        u = rng.random()
        return bisect.bisect_right(self._cumulative, u) + 1
