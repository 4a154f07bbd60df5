"""Ablation: indexing under membership churn.

Section III-A assumes a DHash/PAST-class storage layer underneath the
indexes, and Section IV-D argues the indexes "benefit from the
mechanisms implemented by the DHT substrate for increasing availability".
This ablation injects leave+join events (with storage rebalancing, the
repair such a layer performs) during the query feed and verifies the
paper-level behaviour is preserved: every search still succeeds, and the
only observable costs are moved keys and lost cache contents on departed
nodes.
"""

from dataclasses import replace

from conftest import REDUCED, emit
from repro.analysis.tables import format_table
from repro.sim.experiment import Experiment
from tests.sim.runner import _shared_corpus

CHURN_LEVELS = (0, 10, 50, 200)


def run_cells():
    results = {}
    corpus = _shared_corpus(REDUCED)
    for events in CHURN_LEVELS:
        config = replace(
            REDUCED, cache="single", churn_events=events, num_queries=10_000
        )
        experiment = Experiment(config, corpus=corpus)
        results[events] = (experiment.run(), experiment.churn_keys_moved)
    return results


def test_ablation_churn(benchmark):
    cells = benchmark.pedantic(run_cells, rounds=1, iterations=1)
    rows = []
    for events in CHURN_LEVELS:
        result, keys_moved = cells[events]
        rows.append(
            [
                events,
                f"{result.found}/{result.searches}",
                round(result.avg_interactions, 3),
                f"{100 * result.hit_ratio:.1f}%",
                keys_moved,
            ]
        )
    emit(
        "ablation_churn",
        format_table(
            ["churn events", "found", "interactions", "hit ratio",
             "keys moved"],
            rows,
            title=(
                "Churn ablation -- leave+join with storage rebalance "
                "during 10,000 queries (simple scheme, single-cache)"
            ),
        ),
    )

    stable, _ = cells[0]
    for events in CHURN_LEVELS:
        result, keys_moved = cells[events]
        # Availability: every search succeeds at every churn level.
        assert result.found == result.searches
        # Indexing cost is unaffected by churn (placement changes, the
        # partial-order walk does not).
        assert abs(result.avg_interactions - stable.avg_interactions) < 0.15
        if events:
            assert keys_moved > 0
    # Cache effectiveness degrades gracefully: departed nodes lose their
    # caches, so heavy churn can only lower the hit ratio, and even 200
    # events keep the cache useful.
    assert cells[200][0].hit_ratio <= cells[0][0].hit_ratio + 0.01
    assert cells[200][0].hit_ratio > 0.5 * cells[0][0].hit_ratio
