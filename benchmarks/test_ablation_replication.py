"""Ablation: replica load-spreading for hot-spot relief.

Section V-g ends: "any optimization of the underlying P2P DHT substrate
for hot-spot avoidance (e.g., using replication) will apply to index
accesses as well."  We store each key on r nodes and rotate queries
across the replicas, then re-measure the Figure 15 hot-spot curve: the
busiest node's share should fall roughly with r, while the indexing
metrics (which count interactions, not destinations) stay unchanged.
"""

from dataclasses import replace

from conftest import REDUCED, emit
from repro.analysis.tables import format_table
from repro.sim.experiment import Experiment
from tests.sim.runner import _shared_corpus

FACTORS = (1, 2, 4)


def run_cells():
    corpus = _shared_corpus(REDUCED)
    results = {}
    for replication in FACTORS:
        config = replace(
            REDUCED, replication=replication, num_queries=10_000, cache="none"
        )
        results[replication] = Experiment(config, corpus=corpus).run()
    return results


def test_ablation_replication_spreads_hotspots(benchmark):
    cells = benchmark.pedantic(run_cells, rounds=1, iterations=1)
    rows = []
    for replication in FACTORS:
        result = cells[replication]
        top5 = sum(result.node_query_percentages[:5])
        rows.append(
            [
                replication,
                round(result.avg_interactions, 3),
                f"{100 * result.busiest_node_share:.2f}%",
                f"{top5:.1f}%",
                round(result.avg_index_keys_per_node, 1),
            ]
        )
    emit(
        "ablation_replication",
        format_table(
            ["replication", "interactions", "busiest node", "top-5 nodes",
             "keys/node"],
            rows,
            title=(
                "Replication ablation -- rotating queries across replicas "
                "(simple scheme, no cache, 10,000 queries)"
            ),
        ),
    )

    base = cells[1]
    for replication in FACTORS:
        result = cells[replication]
        # Indexing effectiveness unchanged by replication.
        assert result.avg_interactions == base.avg_interactions
        assert result.found == result.searches
    # The busiest node's load falls as replicas absorb the hot keys.
    shares = [cells[r].busiest_node_share for r in FACTORS]
    assert shares[0] > shares[1] > shares[2]
    # Roughly proportional relief: 4 replicas cut the peak by >= 2x.
    assert shares[0] / shares[2] >= 2.0
    # Extra copies cost storage: keys per node grows with r.
    keys = [cells[r].avg_index_keys_per_node for r in FACTORS]
    assert keys[0] < keys[1] < keys[2]
