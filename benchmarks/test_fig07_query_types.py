"""Figure 7: distribution of query types.

The paper extracts the distribution from BibFinder's 9,108-query log:
author-only 57%, title-only 20%, then date and field combinations.  Our
workload generator is parameterized with the published probabilities
(author .60 / title .20 / year .10 / author+title .05 / author+year .05);
this bench regenerates the 50,000-query workload and reports the
realized distribution.
"""

from conftest import emit
from repro.workload.corpus import CorpusConfig, SyntheticCorpus
from repro.workload.querygen import QueryGenerator
from tests.analysis.tables import bar_chart
from tests.workload.querytrace import (
    QueryTrace,
    format_structure_label,
    structure_distribution,
)

NUM_QUERIES = 50_000


def generate_distribution():
    corpus = SyntheticCorpus(CorpusConfig(num_articles=10_000, num_authors=4_000))
    generator = QueryGenerator(corpus, seed=42)
    traces = [QueryTrace.from_workload(item) for item in generator.generate(NUM_QUERIES)]
    return structure_distribution(traces)


def test_fig07_query_type_distribution(benchmark):
    distribution = benchmark.pedantic(
        generate_distribution, rounds=1, iterations=1
    )
    ordered = dict(
        sorted(
            (
                (format_structure_label(shape), 100.0 * probability)
                for shape, probability in distribution.items()
            ),
            key=lambda kv: -kv[1],
        )
    )
    emit(
        "fig07_query_types",
        bar_chart(
            ordered,
            unit="%",
            title=(
                "Figure 7 -- query type distribution "
                f"({NUM_QUERIES:,} generated queries; "
                "paper: author 57-60%, title 20%, year ~10%)"
            ),
        ),
    )

    # Shape assertions: the ordering and rough magnitudes of the paper.
    assert 0.57 <= distribution[("author",)] <= 0.63
    assert 0.17 <= distribution[("title",)] <= 0.23
    assert 0.08 <= distribution[("year",)] <= 0.12
    assert 0.03 <= distribution[("author", "title")] <= 0.07
    assert 0.03 <= distribution[("author", "year")] <= 0.07
    labels = sorted(distribution, key=distribution.get, reverse=True)
    assert labels[0] == ("author",)
    assert labels[1] == ("title",)
    assert labels[2] == ("year",)
