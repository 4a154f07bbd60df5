"""Popularity series of ``repro.workload.popularity`` models for the
Figure 9 / 10 checks."""

from __future__ import annotations

from typing import Optional

from repro.workload.popularity import (
    PAPER_CCDF_COEFFICIENT,
    PAPER_CCDF_EXPONENT,
    PowerLawPopularity,
)


def fitted_ccdf(
    population: int,
    coefficient: float = PAPER_CCDF_COEFFICIENT,
    exponent: float = PAPER_CCDF_EXPONENT,
) -> list[tuple[int, float]]:
    """The (rank, CCDF) series of Figure 10, at every rank."""
    model = PowerLawPopularity(population, coefficient, exponent)
    return [(rank, model.ccdf(rank)) for rank in range(1, population + 1)]


def empirical_rank_probabilities(samples: list[int], population: Optional[int] = None) -> list[float]:
    """Per-rank empirical request probabilities from sampled ranks.

    Returns probabilities indexed by rank-1, for comparing a sampled
    workload against the model (Figure 9 style), padded with zeros to
    ``population`` when given.
    """
    if not samples:
        raise ValueError("no samples")
    size = population if population is not None else max(samples)
    counts = [0] * size
    for rank in samples:
        if not 1 <= rank <= size:
            raise ValueError(f"sample rank {rank} outside [1, {size}]")
        counts[rank - 1] += 1
    total = len(samples)
    return [count / total for count in counts]
