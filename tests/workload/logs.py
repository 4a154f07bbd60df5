"""Query-log pipeline: the paper's workload-modelling methodology.

Section V-C derives its models from raw query logs: BibFinder's 9,108
queries give the *structure* distribution (Figure 7); counting queries
per author/article gives the *popularity* distributions, fitted by least
squares to power laws (Figure 9), which -- adapted to the finite
population -- yield the simulation's CCDF (Figure 10).

This module reproduces the pipeline end to end, so the benches derive
their models from logs exactly as the paper did, instead of hard-coding
constants:

1. :func:`generate_query_log` emits a BibFinder-like textual log (one
   ``field=value&field=value`` line per query);
2. :func:`parse_query_log` recovers structured entries from the text;
3. :func:`summarize_log` computes the structure distribution and the
   per-value request counts;
4. :func:`derive_models` turns a summary into a
   :class:`~repro.workload.querygen.QueryStructureModel` and a fitted
   power-law popularity model ready to drive the generator.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from repro.workload.corpus import SyntheticCorpus
from repro.workload.popularity import PowerLawPopularity
from repro.workload.querygen import QueryGenerator, QueryStructureModel
from tests.analysis.powerlaw import PowerLawFit, fit_power_law


@dataclass(frozen=True)
class LogEntry:
    """One logged query: ordered (field, value) pairs."""

    pairs: tuple[tuple[str, str], ...]

    @property
    def structure(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.pairs)

    def value(self, field_name: str) -> Optional[str]:
        """The logged value of a field, or None."""
        for name, value in self.pairs:
            if name == field_name:
                return value
        return None

    def to_line(self) -> str:
        """Serialize as a ``field=value&field=value`` log line."""
        return "&".join(f"{name}={value}" for name, value in self.pairs)

    @classmethod
    def from_line(cls, line: str) -> "LogEntry":
        pairs = []
        for part in line.strip().split("&"):
            name, separator, value = part.partition("=")
            if not separator or not name or not value:
                raise ValueError(f"malformed log line: {line!r}")
            pairs.append((name, value))
        if not pairs:
            raise ValueError("empty log line")
        return cls(tuple(pairs))


@dataclass
class LogSummary:
    """Aggregates the paper extracts from a log."""

    total: int = 0
    structure_counts: Counter = field(default_factory=Counter)
    #: Requests per author value (the Figure 9 author series).
    author_counts: Counter = field(default_factory=Counter)
    #: Requests per title value (the Figure 9 article series).
    title_counts: Counter = field(default_factory=Counter)

    def structure_distribution(self) -> dict[tuple[str, ...], float]:
        """Fraction of queries per query type (Figure 7)."""
        if not self.total:
            raise ValueError("empty log")
        return {
            structure: count / self.total
            for structure, count in self.structure_counts.items()
        }

    def popularity_series(self, field_name: str) -> list[float]:
        """Request probabilities by decreasing rank for one field."""
        counts = {
            "author": self.author_counts,
            "title": self.title_counts,
        }.get(field_name)
        if counts is None:
            raise ValueError(f"no popularity series for field {field_name!r}")
        if not counts:
            raise ValueError(f"log has no {field_name} queries")
        ordered = sorted(counts.values(), reverse=True)
        volume = sum(ordered)
        return [count / volume for count in ordered]


def generate_query_log(
    corpus: SyntheticCorpus, volume: int, seed: int = 42
) -> list[str]:
    """Emit a BibFinder-like log from the reference workload models."""
    generator = QueryGenerator(corpus, seed=seed)
    lines = []
    for item in generator.generate(volume):
        pairs = tuple(
            (name, item.query.value(name)) for name in item.structure
        )
        lines.append(LogEntry(pairs).to_line())
    return lines


def parse_query_log(lines: Iterable[str]) -> Iterator[LogEntry]:
    """Parse log text lines, skipping blanks."""
    for line in lines:
        if line.strip():
            yield LogEntry.from_line(line)


def summarize_log(entries: Iterable[LogEntry]) -> LogSummary:
    """Compute the Figure 7 and Figure 9 raw material from a log."""
    summary = LogSummary()
    for entry in entries:
        summary.total += 1
        summary.structure_counts[entry.structure] += 1
        author = entry.value("author")
        if author is not None:
            summary.author_counts[author] += 1
        title = entry.value("title")
        if title is not None:
            summary.title_counts[title] += 1
    return summary


@dataclass(frozen=True)
class DerivedModels:
    """Workload models recovered from a log (the paper's Section V-C)."""

    structure: QueryStructureModel
    popularity_fit: PowerLawFit

    def popularity_for_population(self, population: int) -> PowerLawPopularity:
        """Adapt the fitted power law to a finite article population.

        The pmf exponent ``alpha`` of ``p_i = k / i**alpha`` corresponds
        to a CDF family ``c * i**(1 - alpha)``; normalizing to the
        population reproduces the paper's "after adapting the parameters
        ... to match the finite population" step.
        """
        exponent = max(0.05, min(0.95, 1.0 - self.popularity_fit.alpha))
        return PowerLawPopularity.for_population(population, exponent)


def derive_models(summary: LogSummary) -> DerivedModels:
    """Recover generator models from a log summary."""
    structure = QueryStructureModel(summary.structure_distribution())
    series = summary.popularity_series("author")
    ranks = list(range(1, len(series) + 1))
    fit = fit_power_law(ranks, series)
    return DerivedModels(structure=structure, popularity_fit=fit)
