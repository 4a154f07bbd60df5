"""Ablation: scalability in the node population.

Section V-E: "Simulating P2P networks of different sizes is of no use
for our experiments.  The number of nodes can affect the DHT lookup
latency, and the number of keys stored per node, but does not impact the
effectiveness of our indexing techniques."

This ablation verifies that claim instead of assuming it: the identical
corpus and workload run over 125..1000 nodes.  Interactions, traffic,
and errors must be invariant; per-node key counts must scale as 1/N; and
the hot-spot skew persists at every size (it is a property of the query
distribution, not of the population).
"""

from dataclasses import replace

import pytest

from conftest import REDUCED, emit
from repro.analysis.tables import format_table
from repro.sim.experiment import Experiment
from tests.sim.runner import _shared_corpus

NODE_COUNTS = (125, 250, 500, 1_000)


def run_cells():
    corpus = _shared_corpus(REDUCED)
    results = {}
    for num_nodes in NODE_COUNTS:
        config = replace(
            REDUCED, num_nodes=num_nodes, num_queries=10_000, cache="none"
        )
        results[num_nodes] = Experiment(config, corpus=corpus).run()
    return results


def test_ablation_scalability(benchmark):
    cells = benchmark.pedantic(run_cells, rounds=1, iterations=1)
    rows = []
    for num_nodes in NODE_COUNTS:
        result = cells[num_nodes]
        rows.append(
            [
                num_nodes,
                round(result.avg_interactions, 3),
                int(result.normal_bytes_per_query),
                result.nonindexed_queries,
                round(result.avg_index_keys_per_node, 1),
                f"{100 * result.busiest_node_share:.2f}%",
            ]
        )
    emit(
        "ablation_scalability",
        format_table(
            ["nodes", "interactions", "normal B/q", "errors", "keys/node",
             "busiest node"],
            rows,
            title=(
                "Scalability ablation -- identical workload over growing "
                "populations (simple scheme, no cache)"
            ),
        ),
    )

    reference = cells[NODE_COUNTS[0]]
    for num_nodes in NODE_COUNTS:
        result = cells[num_nodes]
        # Indexing effectiveness is population-independent (the paper's
        # justification for fixing 500 nodes).
        assert result.avg_interactions == reference.avg_interactions
        assert result.normal_bytes_per_query == reference.normal_bytes_per_query
        assert result.nonindexed_queries == reference.nonindexed_queries
    # Storage per node scales down as the population grows.
    keys = [cells[n].avg_index_keys_per_node for n in NODE_COUNTS]
    assert all(a > b for a, b in zip(keys, keys[1:]))
    # Doubling nodes roughly halves per-node keys.
    assert keys[0] / keys[-1] == pytest.approx(
        NODE_COUNTS[-1] / NODE_COUNTS[0], rel=0.15
    )
    # The busiest node's absolute share shrinks with more nodes, but a
    # hot-spot always exists (well above the uniform 1/N share).
    for num_nodes in NODE_COUNTS:
        assert cells[num_nodes].busiest_node_share > 3.0 / num_nodes
