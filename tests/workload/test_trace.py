"""Unit tests for query traces and the Figure 7 summary."""

import pytest

from repro.workload.corpus import CorpusConfig, SyntheticCorpus
from repro.workload.querygen import QueryGenerator
from tests.workload.querytrace import (
    QueryTrace,
    format_structure_label,
    read_trace,
    structure_distribution,
    write_trace,
)


@pytest.fixture(scope="module")
def traces():
    corpus = SyntheticCorpus(CorpusConfig(num_articles=300, num_authors=100, seed=2))
    generator = QueryGenerator(corpus, seed=3)
    return [QueryTrace.from_workload(item) for item in generator.generate(2_000)]


class TestTraceRecord:
    def test_from_workload(self, traces):
        trace = traces[0]
        assert len(trace.structure) == len(trace.values)
        assert trace.target_rank >= 1

    def test_line_roundtrip(self, traces):
        for trace in traces[:50]:
            assert QueryTrace.from_line(trace.to_line()) == trace

    def test_text_roundtrip(self, traces):
        text = write_trace(traces[:20])
        assert list(read_trace(text)) == traces[:20]

    def test_malformed_lines_rejected(self):
        for line in ("", "justrank", "1|no-equals", "1|=value", "1|field="):
            with pytest.raises(ValueError):
                QueryTrace.from_line(line)

    def test_read_skips_blank_lines(self):
        text = "1|author=X\n\n2|title=Y\n"
        assert len(list(read_trace(text))) == 2


class TestFigure7Summary:
    def test_distribution_sums_to_one(self, traces):
        distribution = structure_distribution(traces)
        assert sum(distribution.values()) == pytest.approx(1.0)

    def test_author_dominates(self, traces):
        distribution = structure_distribution(traces)
        assert distribution[("author",)] == pytest.approx(0.60, abs=0.04)
        ordered = sorted(distribution.items(), key=lambda kv: -kv[1])
        assert ordered[0][0] == ("author",)
        assert ordered[1][0] == ("title",)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            structure_distribution([])

    def test_labels(self):
        assert format_structure_label(("author",)) == "/author"
        assert format_structure_label(("author", "title")) == "/author/title"
