"""The experiment result record: every measurement the figures need."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ExperimentResult:
    """Aggregated outcome of one simulation run.

    One instance corresponds to one (scheme, cache policy) cell of the
    paper's evaluation grid; the figures each read a subset of fields:

    ====================  =====================================================
    Figure / Table         Fields
    ====================  =====================================================
    Fig 11                 ``avg_interactions``
    Fig 12                 ``normal_bytes_per_query``, ``cache_bytes_per_query``
    Fig 13                 ``hit_ratio``, ``first_contact_hit_share``
    Fig 14                 ``avg_cached_keys_per_node``, ``max_cached_keys``,
                           ``caches_full_fraction``, ``caches_empty_fraction``,
                           ``avg_index_keys_per_node``
    Fig 15                 ``node_query_percentages``
    Table I                ``nonindexed_queries``
    Section V-B            ``index_storage_bytes``, ``article_bytes``
    Substrate ablation     ``avg_dht_hops``
    ====================  =====================================================
    """

    scheme: str
    cache: str
    substrate: str
    num_nodes: int
    num_articles: int
    num_queries: int

    # Simulation mode (virtual-time kernel runs; sequential mode keeps
    # the defaults and all response-time fields at zero).
    concurrency: int = 1
    latency_model: str = "zero"

    # Per-query response time on the virtual clock (kernel mode only).
    response_time_ms_mean: float = 0.0
    response_time_ms_p50: float = 0.0
    response_time_ms_p95: float = 0.0
    response_time_ms_p99: float = 0.0
    #: Virtual time at which the last event of the run fired (the
    #: makespan of the whole feed on the simulated clock).
    virtual_time_ms: float = 0.0

    # Search outcomes
    searches: int = 0
    found: int = 0
    avg_interactions: float = 0.0
    total_interactions: int = 0
    #: Searches whose query carried at least one non-exact predicate
    #: (prefix / wildcard / range); 0 for exact-only workloads.
    predicate_queries: int = 0

    # Errors (Table I)
    nonindexed_queries: int = 0        # searches that hit >= 1 recoverable error
    total_error_interactions: int = 0  # wasted interactions across all searches

    # Traffic (Fig 12)
    normal_bytes_total: int = 0
    cache_bytes_total: int = 0
    normal_bytes_per_query: float = 0.0
    cache_bytes_per_query: float = 0.0

    # Cache effectiveness (Fig 13)
    cache_hits: int = 0
    first_contact_hits: int = 0
    hit_ratio: float = 0.0
    first_contact_hit_share: float = 0.0

    # Cache storage (Fig 14)
    avg_cached_keys_per_node: float = 0.0
    max_cached_keys: int = 0
    caches_full_fraction: float = 0.0
    caches_empty_fraction: float = 0.0

    # Regular index storage (Fig 14 text + Section V-B)
    avg_index_keys_per_node: float = 0.0
    index_storage_bytes: int = 0
    article_bytes: int = 0

    # Hot-spots (Fig 15): % of queries that touched each node, descending.
    node_query_percentages: list[float] = field(default_factory=list)

    # Substrate ablation
    avg_dht_hops: float = 0.0

    # Availability under faults and churn (chaos runs).  All zero on a
    # reliable network, so the failure-free figures are untouched.
    success_rate: float = 0.0          # found / searches
    total_retries: int = 0             # re-sent exchanges across all lookups
    retries_per_lookup: float = 0.0
    total_failed_sends: int = 0        # exchanges that raised DeliveryError
    lookups_gave_up: int = 0           # searches abandoned on delivery failure
    fault_drops: int = 0               # injected message losses
    fault_crashed_sends: int = 0       # sends refused by crashed nodes
    service_failovers: int = 0         # requests redirected to a replica
    storage_failovers: int = 0         # reads skipping a dead replica
    repair_keys: int = 0               # keys re-replicated by churn repair
    repair_bytes: int = 0              # repair traffic (bytes copied)

    # Restart / power-loss chaos (durability runs).  All zero unless the
    # config schedules restart_events / power_loss_events.
    restarts: int = 0                  # process kills (incl. power losses)
    power_losses: int = 0              # kills that also tore the WAL tail
    recovered_entries: int = 0         # index+file entries replayed back
    recovered_cache_entries: int = 0   # cache shortcuts replayed back
    wal_records_replayed: int = 0      # WAL records applied at recovery
    wal_torn_bytes: int = 0            # bytes destroyed by power losses
    recovery_replay_ms: float = 0.0    # wall time spent replaying (total)
    post_restart_searches: int = 0     # lookups issued after 1st recovery
    post_restart_found: int = 0
    post_restart_success_rate: float = 0.0

    # Adversarial (Byzantine) runs -- see repro.net.adversary and
    # repro.sec.  All zero unless the config plants an adversary or
    # switches signature verification on.
    adversarial_nodes: int = 0         # poisoners + liars + marked Sybils
    sybil_joins: int = 0               # adversary-controlled joins executed
    eclipsed_nodes: int = 0            # victims whose lookups get dropped
    poisoned_results: int = 0          # forged file fetches delivered
    poisoned_result_rate: float = 0.0  # poisoned_results / searches
    forged_answers: int = 0            # fabricated index answers delivered
    verify_failures: int = 0           # forgeries caught by verification
    contradictions: int = 0            # withheld answers another replica held
    eclipse_drops: int = 0             # lookup messages eaten by eclipses
    low_trust_peers: int = 0           # peers below the trust threshold

    runtime_seconds: float = 0.0

    # Hot-path perf counters accumulated during this run (the increments
    # of repro.perf.counters between run start and end): parses,
    # normalizations, covering checks, cache hits/misses, ...
    perf_counters: dict[str, int] = field(default_factory=dict)

    def perf_hit_rate(self, operation: str) -> float:
        """Cache hit rate of one counted operation during this run.

        ``operation`` is the counter prefix (``"field_parse"``, the one
        counted cache); returns 0.0 when the operation never ran.
        """
        hits = self.perf_counters.get(f"{operation}_cache_hits", 0)
        misses = self.perf_counters.get(f"{operation}_cache_misses", 0)
        total = hits + misses
        return hits / total if total else 0.0

    @property
    def busiest_node_share(self) -> float:
        """Fraction of queries hitting the single busiest node (Fig 15)."""
        if not self.node_query_percentages:
            return 0.0
        return self.node_query_percentages[0] / 100.0

    @property
    def total_bytes_per_query(self) -> float:
        return self.normal_bytes_per_query + self.cache_bytes_per_query

    def label(self) -> str:
        """Compact scheme/cache/substrate identifier of the cell."""
        return f"{self.scheme}/{self.cache}/{self.substrate}"

    def response_time_rows(self) -> list[list[object]]:
        """The latency report of a virtual-time run (label/value rows)."""
        return [
            ["concurrency", self.concurrency],
            ["latency model", self.latency_model],
            ["response time p50", f"{self.response_time_ms_p50:,.1f} ms"],
            ["response time p95", f"{self.response_time_ms_p95:,.1f} ms"],
            ["response time p99", f"{self.response_time_ms_p99:,.1f} ms"],
            ["response time mean", f"{self.response_time_ms_mean:,.1f} ms"],
            ["virtual makespan", f"{self.virtual_time_ms:,.1f} ms"],
        ]

    def availability_rows(self) -> list[list[object]]:
        """The availability report of a chaos run (label/value rows)."""
        return [
            ["lookup success rate", f"{100 * self.success_rate:.2f}%"],
            ["lookups that gave up", self.lookups_gave_up],
            ["retries / lookup", round(self.retries_per_lookup, 4)],
            ["failed sends", self.total_failed_sends],
            ["replica failovers (service, storage)",
             f"{self.service_failovers}, {self.storage_failovers}"],
            ["injected drops", self.fault_drops],
            ["sends refused by crashed nodes", self.fault_crashed_sends],
            ["keys re-replicated by repair", self.repair_keys],
            ["repair traffic", f"{self.repair_bytes:,} B"],
        ] + self.restart_rows() + self.adversarial_rows()

    def restart_rows(self) -> list[list[object]]:
        """Restart-chaos rows; empty unless restarts happened, so the
        pre-durability availability reports are byte-identical."""
        if not self.restarts:
            return []
        return [
            ["restarts (of which power losses)",
             f"{self.restarts} ({self.power_losses})"],
            ["entries recovered from the WAL",
             f"{self.recovered_entries} "
             f"(+{self.recovered_cache_entries} cached shortcuts)"],
            ["WAL records replayed", self.wal_records_replayed],
            ["WAL bytes torn by power loss", self.wal_torn_bytes],
            ["recovery replay time", f"{self.recovery_replay_ms:.1f} ms"],
            ["post-restart lookup success",
             f"{100 * self.post_restart_success_rate:.2f}% "
             f"({self.post_restart_found}/{self.post_restart_searches})"],
        ]

    def adversarial_rows(self) -> list[list[object]]:
        """Adversarial-run rows; empty on a benign run, so the earlier
        availability reports are byte-identical."""
        if not (self.adversarial_nodes or self.eclipsed_nodes):
            return []
        return [
            ["adversarial nodes (of which Sybil joins)",
             f"{self.adversarial_nodes} ({self.sybil_joins})"],
            ["eclipsed nodes", self.eclipsed_nodes],
            ["forged index answers delivered", self.forged_answers],
            ["poisoned file results",
             f"{self.poisoned_results} "
             f"({100 * self.poisoned_result_rate:.2f}% of lookups)"],
            ["forgeries caught by verification", self.verify_failures],
            ["withheld answers contradicted", self.contradictions],
            ["lookups eaten by eclipse sets", self.eclipse_drops],
            ["peers below trust threshold", self.low_trust_peers],
        ]

    def validate(self) -> None:
        """Internal consistency checks (used by tests)."""
        if self.found > self.searches:
            raise ValueError("found more searches than issued")
        if self.cache == "none" and (self.cache_hits or self.cache_bytes_total):
            raise ValueError("cache activity recorded without a cache policy")
        if not 0.0 <= self.hit_ratio <= 1.0:
            raise ValueError("hit ratio outside [0, 1]")
        if not 0.0 <= self.success_rate <= 1.0:
            raise ValueError("success rate outside [0, 1]")
        if self.lookups_gave_up > self.searches:
            raise ValueError("more abandoned lookups than searches")
        if not 0.0 <= self.poisoned_result_rate <= 1.0:
            raise ValueError("poisoned-result rate outside [0, 1]")
        if self.poisoned_results and self.verify_failures:
            # Forgery is either delivered (verify off) or caught (on);
            # a run recording both means the transport double-counted.
            raise ValueError("poisoned results recorded despite verification")
