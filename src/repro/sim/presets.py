"""Parameter presets: the paper's grid and smaller smoke variants.

Every named cell of the evaluation lives in the :data:`PRESETS`
registry -- one resolution path for the CLI (``--preset``), the test
suite, and CI, instead of each caller keeping its own name->config
dict.  The module-level ``*_CONFIG`` constants remain as aliases for
direct imports.
"""

from __future__ import annotations

from dataclasses import replace

from repro.sim.experiment import ExperimentConfig

#: The preset registry: name -> configuration.  Populated by
#: :func:`register_preset` as each cell below is defined.
PRESETS: dict[str, ExperimentConfig] = {}


def register_preset(name: str, config: ExperimentConfig) -> ExperimentConfig:
    """Register a named cell; returns the config for alias assignment."""
    if name in PRESETS:
        raise ValueError(f"duplicate preset name {name!r}")
    PRESETS[name] = config
    return config


def get_preset(name: str) -> ExperimentConfig:
    """Resolve a preset by name, with a listing on failure."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; choose from {', '.join(preset_names())}"
        ) from None


def preset_names() -> list[str]:
    """Registered preset names, sorted for stable CLI listings."""
    return sorted(PRESETS)


#: The three indexing schemes of Figure 8, in the paper's S/F/C order.
SCHEMES: tuple[str, ...] = ("simple", "flat", "complex")

#: Cache policies on the x-axis of Figure 11 (multi-cache omitted there
#: because "it presents the same characteristics as the single-cache").
CACHE_POLICIES_FIG11: tuple[str, ...] = (
    "none",
    "single",
    "lru10",
    "lru20",
    "lru30",
)

#: Cache policies on the x-axis of Figure 12 (incl. multi-cache).
CACHE_POLICIES_FIG12: tuple[str, ...] = (
    "none",
    "multi",
    "single",
    "lru10",
    "lru20",
    "lru30",
)

#: Cache policies on the x-axes of Figures 13 and 14 (cacheful only).
CACHE_POLICIES_CACHED: tuple[str, ...] = (
    "multi",
    "single",
    "lru10",
    "lru20",
    "lru30",
)

#: The paper's setup (Section V-E): 500 nodes, 10,000 articles, 50,000
#: sequential queries.
PAPER_CONFIG = register_preset("paper", ExperimentConfig())

#: A proportionally reduced configuration for fast tests.
SMOKE_CONFIG = register_preset(
    "smoke",
    ExperimentConfig(
        num_nodes=50,
        num_articles=500,
        num_queries=2_000,
        num_authors=200,
    ),
)

#: The churn/availability experiment: the paper's 50,000-query feed under
#: a seeded chaos plan -- 5% message drop, Poisson join/leave churning 10%
#: of the 500-node population, plus transient crash windows -- with
#: replication 3 so retries and replica failover can carry the load.  The
#: acceptance bar is >= 95% lookup success (measured well above that).
CHURN_CONFIG = register_preset(
    "churn",
    replace(
        PAPER_CONFIG,
        cache="single",
        replication=3,
        churn_events=50,
        churn_mode="poisson",
        fault_drop_probability=0.05,
        crash_events=10,
        crash_downtime_queries=500,
    ),
)

#: The response-time experiment: the churn cell driven by 16 concurrent
#: users on the virtual-time event kernel, with seeded per-pair link
#: latencies, so p50/p95/p99 lookup response times become measurable
#: under the same failure load.
CONCURRENT_CONFIG = register_preset(
    "concurrent",
    replace(
        CHURN_CONFIG,
        concurrency=16,
        latency_model="uniform:10:100",
    ),
)

#: The web-scale stress cell: 10^5 nodes and 10^6 queries -- two orders
#: of magnitude past the paper -- driven closed-loop by 10,000 users on
#: the virtual clock.  The timing-wheel scheduler (the kernel every run
#: uses) is what makes it finish in minutes; the feed is streamed, so
#: memory stays bounded.  Fewer authors per article and a fatter corpus
#: keep the index realistic at scale; replication stays 1 (the routing
#: and indexing layers are the subject, not durability).
WEB_SCALE_CONFIG = register_preset(
    "web-scale",
    ExperimentConfig(
        num_nodes=100_000,
        num_articles=20_000,
        num_queries=1_000_000,
        num_authors=8_000,
        concurrency=10_000,
        latency_model="uniform:10:100",
    ),
)

#: A proportionally reduced web-scale cell for CI: same machinery
#: (100 concurrent users on the virtual clock) at a size that finishes
#: in seconds.
WEB_SCALE_SMOKE_CONFIG = register_preset(
    "web-scale-smoke",
    ExperimentConfig(
        num_nodes=2_000,
        num_articles=1_000,
        num_queries=5_000,
        num_authors=400,
        concurrency=100,
        latency_model="uniform:10:100",
    ),
)

#: The restart/power-loss chaos experiment (the durability matrix):
#: durable (write-ahead log) nodes under a lossy network and a rolling
#: schedule of 6 process kills plus 2 power losses, each node down for
#: 300 queries before it restarts, replays its journal, and rejoins via
#: repair.  Replication 3 carries the load during the outage windows;
#: the acceptance bar is >= 99% post-restart lookup success (a
#: ``durability="none"`` copy of this cell is the lost-state baseline).
RESTART_CHAOS_CONFIG = register_preset(
    "restart-chaos",
    ExperimentConfig(
        cache="single",
        replication=3,
        num_nodes=100,
        num_articles=2_000,
        num_queries=10_000,
        num_authors=800,
        fault_drop_probability=0.01,
        restart_events=6,
        restart_downtime_queries=300,
        power_loss_events=2,
        durability="wal",
        fsync="interval:32",
    ),
)

#: A proportionally reduced restart-chaos cell for fast tests: same
#: machinery (durable journals, one power loss) in a few seconds.
RESTART_CHAOS_SMOKE_CONFIG = register_preset(
    "restart-chaos-smoke",
    replace(
        RESTART_CHAOS_CONFIG,
        num_nodes=30,
        num_articles=300,
        num_queries=1_500,
        num_authors=120,
        restart_events=2,
        restart_downtime_queries=150,
        power_loss_events=1,
    ),
)

#: The predicate-query experiment: half the workload loosened into
#: prefix/wildcard/year-range queries, resolved through the
#: trie-over-DHT index.  The driver (``python -m repro.sim --preset
#: range-queries``) runs this cell head-to-head against an
#: ``index_structure="chains"`` copy (the paper's generalization /
#: specialization fallback) and reports interactions/query and traffic
#: for both, recorded in EXPERIMENTS.md and BENCH_query.json.
RANGE_QUERIES_CONFIG = register_preset(
    "range-queries",
    ExperimentConfig(
        num_nodes=200,
        num_articles=5_000,
        num_queries=20_000,
        num_authors=2_000,
        predicate_mix=0.5,
        index_structure="trie",
    ),
)

#: A proportionally reduced predicate-query cell for CI smoke runs.
RANGE_QUERIES_SMOKE_CONFIG = register_preset(
    "range-queries-smoke",
    replace(
        RANGE_QUERIES_CONFIG,
        num_nodes=50,
        num_articles=500,
        num_queries=2_000,
        num_authors=200,
    ),
)

#: A proportionally reduced chaos cell for fast tests.
CHURN_SMOKE_CONFIG = register_preset(
    "churn-smoke",
    replace(
        CHURN_CONFIG,
        num_nodes=50,
        num_articles=500,
        num_queries=2_000,
        num_authors=200,
        churn_events=5,
        crash_events=2,
        crash_downtime_queries=100,
    ),
)

#: The adversarial experiment ("lookups under attack"): 10% of a
#: 300-node population poisons index answers, 5% forges referrals, 20
#: Sybils flood in over the feed, and 6 honest nodes are eclipsed --
#: on top of a mildly lossy network, with replication 3 and the single
#: cache.  The driver (``python -m repro.sim --preset adversarial``)
#: runs the cell twice, verification off (the undefended baseline,
#: measuring the poisoned-result rate) and on (signed frames + trust
#: ledger, measuring recovery), and records both in BENCH_sec.json.
ADVERSARIAL_CONFIG = register_preset(
    "adversarial",
    ExperimentConfig(
        cache="single",
        replication=3,
        num_nodes=300,
        num_articles=3_000,
        num_queries=15_000,
        num_authors=1_200,
        fault_drop_probability=0.01,
        churn_seed=11,
        adversary_poisoners=30,
        adversary_liars=15,
        adversary_sybil_joins=20,
        adversary_eclipse_victims=6,
    ),
)

#: A proportionally reduced adversarial cell for CI smoke runs (same
#: attacker mix at roughly one-fifth scale).
ADVERSARIAL_SMOKE_CONFIG = register_preset(
    "adversarial-smoke",
    replace(
        ADVERSARIAL_CONFIG,
        num_nodes=60,
        num_articles=600,
        num_queries=3_000,
        num_authors=240,
        adversary_poisoners=6,
        adversary_liars=3,
        adversary_sybil_joins=4,
        adversary_eclipse_victims=2,
    ),
)
