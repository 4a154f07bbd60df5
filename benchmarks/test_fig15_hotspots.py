"""Figure 15: percentage of queries processed by each node (hot-spots).

Paper's observations (simple scheme): the busiest node is touched by
almost 1 in 10 queries; the per-node load is heavily skewed (log-log
plot); caching slightly relieves the most stressed nodes; totals sum to
more than 100% because one user query generates several index accesses.
"""

from conftest import cell, emit
from repro.analysis.tables import format_table
from tests.analysis.stats import lorenz_skew

POLICIES = ("none", "lru30", "single")


def run_cells():
    return {cache: cell("simple", cache) for cache in POLICIES}


def test_fig15_hotspots(benchmark):
    cells = benchmark.pedantic(run_cells, rounds=1, iterations=1)
    checkpoints = [1, 2, 3, 5, 10, 20, 50, 100, 200, 500]
    rows = []
    for rank in checkpoints:
        row = [rank]
        for cache in POLICIES:
            series = cells[cache].node_query_percentages
            row.append(round(series[rank - 1], 3) if rank <= len(series) else 0.0)
        rows.append(row)
    totals = ["sum (>100%)"] + [
        round(sum(cells[cache].node_query_percentages), 1) for cache in POLICIES
    ]
    skews = ["top-10% share"] + [
        round(lorenz_skew(cells[cache].node_query_percentages), 3)
        for cache in POLICIES
    ]
    emit(
        "fig15_hotspots",
        format_table(
            ["node rank", *POLICIES],
            rows + [totals, skews],
            title=(
                "Figure 15 -- % of 50,000 queries touching each node, by "
                "load rank, simple scheme (paper: busiest ~1 in 10; "
                "caching relieves the head)"
            ),
        ),
    )

    for cache in POLICIES:
        series = cells[cache].node_query_percentages
        # Skewed load: busiest node far above the median node.
        median = series[len(series) // 2]
        assert series[0] > 5 * median
        # Fan-out: percentages sum to more than 100%.
        assert sum(series) > 100.0

    # Busiest node handles on the order of 1 in 10 queries without cache.
    busiest = cells["none"].node_query_percentages[0]
    assert 4.0 <= busiest <= 15.0

    # Caching slightly relieves the busiest nodes.
    assert cells["single"].node_query_percentages[0] <= busiest
    assert cells["lru30"].node_query_percentages[0] <= busiest * 1.02
