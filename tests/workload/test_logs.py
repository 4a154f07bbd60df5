"""Unit tests for the query-log pipeline (the Section V-C methodology)."""

import pytest

from repro.workload.corpus import CorpusConfig, SyntheticCorpus
from tests.workload.logs import (
    LogEntry,
    derive_models,
    generate_query_log,
    parse_query_log,
    summarize_log,
)


@pytest.fixture(scope="module")
def corpus():
    return SyntheticCorpus(CorpusConfig(num_articles=800, num_authors=300, seed=6))


@pytest.fixture(scope="module")
def log_lines(corpus):
    return generate_query_log(corpus, volume=9_108, seed=13)  # BibFinder size


class TestLogEntry:
    def test_line_roundtrip(self):
        entry = LogEntry((("author", "John_Smith"), ("year", "1996")))
        assert LogEntry.from_line(entry.to_line()) == entry

    def test_structure_and_value(self):
        entry = LogEntry((("author", "A"), ("title", "T")))
        assert entry.structure == ("author", "title")
        assert entry.value("title") == "T"
        assert entry.value("year") is None

    @pytest.mark.parametrize("line", ["", "author", "=x", "author=", "a=1&=2"])
    def test_malformed_rejected(self, line):
        with pytest.raises(ValueError):
            LogEntry.from_line(line)


class TestPipeline:
    def test_log_volume(self, log_lines):
        assert len(log_lines) == 9_108

    def test_parse_roundtrip(self, log_lines):
        entries = list(parse_query_log(log_lines))
        assert len(entries) == len(log_lines)
        assert [e.to_line() for e in entries] == log_lines

    def test_parse_skips_blank_lines(self):
        entries = list(parse_query_log(["author=A", "", "  ", "title=T"]))
        assert len(entries) == 2

    def test_summary_structure_matches_source_model(self, log_lines):
        summary = summarize_log(parse_query_log(log_lines))
        distribution = summary.structure_distribution()
        assert distribution[("author",)] == pytest.approx(0.60, abs=0.03)
        assert distribution[("title",)] == pytest.approx(0.20, abs=0.03)

    def test_summary_popularity_counts(self, log_lines):
        summary = summarize_log(parse_query_log(log_lines))
        # ~70% of queries carry an author field (60% + 5% + 5%).
        assert sum(summary.author_counts.values()) == pytest.approx(
            0.70 * summary.total, rel=0.07
        )
        series = summary.popularity_series("author")
        assert series == sorted(series, reverse=True)
        assert sum(series) == pytest.approx(1.0)

    def test_empty_summary_rejected(self):
        summary = summarize_log([])
        with pytest.raises(ValueError):
            summary.structure_distribution()
        with pytest.raises(ValueError):
            summary.popularity_series("author")

    def test_unknown_series_rejected(self, log_lines):
        summary = summarize_log(parse_query_log(log_lines))
        with pytest.raises(ValueError):
            summary.popularity_series("conf")


class TestDerivedModels:
    def test_recovers_power_law(self, log_lines):
        summary = summarize_log(parse_query_log(log_lines))
        models = derive_models(summary)
        assert models.popularity_fit.is_power_law

    def test_derived_models_drive_generator(self, corpus, log_lines):
        """The full loop: log -> models -> new workload."""
        from repro.workload.querygen import QueryGenerator

        summary = summarize_log(parse_query_log(log_lines))
        models = derive_models(summary)
        popularity = models.popularity_for_population(len(corpus))
        generator = QueryGenerator(
            corpus, popularity, structure=models.structure, seed=99
        )
        items = list(generator.generate(2_000))
        assert len(items) == 2_000
        author_share = sum(
            1 for item in items if item.structure == ("author",)
        ) / len(items)
        assert author_share == pytest.approx(0.60, abs=0.05)

    def test_popularity_adaptation_bounds_exponent(self, log_lines):
        summary = summarize_log(parse_query_log(log_lines))
        models = derive_models(summary)
        adapted = models.popularity_for_population(1_000)
        assert 0.05 <= adapted.exponent <= 0.95
        assert adapted.cdf(1_000) == 1.0
