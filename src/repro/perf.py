"""Cheap, always-on performance counters for the query-algebra hot path.

The paper's evaluation pushes 50,000 queries through the index hierarchy
(Section V); every step reads the canonical keys a node answered with.
This module counts that work -- key parses and the cache hits that avoid
them, free-text XPath parses, engine and service traffic, faults, WAL,
wire and security events -- so that performance work can be *proved*
rather than eyeballed.

Counters are plain integer attributes on a module-level singleton,
incremented inline by the instrumented layers (:mod:`repro.core`,
:mod:`repro.net`, :mod:`repro.storage`, :mod:`repro.rpc`, ...).  Incrementing an int attribute costs tens of
nanoseconds, so the counters stay on in production and in every
simulation run; :meth:`PerfCounters.snapshot` and :func:`delta` turn them
into dictionaries for reports, benchmark JSON dumps, and regression
guards.

Invariants (enforced by tests):

- every counter is monotonically non-decreasing between resets;
- for each cached operation, ``hits + misses == calls``.
"""

from __future__ import annotations

#: (calls, hits, misses) attribute triples of every cached operation.
CACHE_TRIPLES: tuple[tuple[str, str, str], ...] = (
    (
        "field_parse_calls",
        "field_parse_cache_hits",
        "field_parse_cache_misses",
    ),
)


class PerfCounters:
    """Hot-path operation counters; one process-wide instance lives below."""

    __slots__ = (
        # free-text XPath parsing (repro.xmlq)
        "xpath_parses",
        # field-query parsing (core layer)
        "field_parse_calls",
        "field_parse_cache_hits",
        "field_parse_cache_misses",
        # service / engine traffic
        "service_queries",
        "service_file_fetches",
        "engine_searches",
        "engine_generalizations",
        # predicate queries (repro.core.predicates / repro.core.trie)
        "engine_specializations",
        "trie_walks",
        # fault injection (repro.net.faults)
        "fault_drops",
        "fault_duplicates",
        "fault_latency_ms",
        "fault_crashed_sends",
        # failure-aware lookups (engine retries, service replica failover)
        "engine_retries",
        "engine_failed_sends",
        "engine_gave_up",
        "service_failovers",
        # storage failover and churn repair
        "storage_failovers",
        "storage_repair_keys",
        "storage_repair_bytes",
        # durable node state (repro.storage.durable)
        "wal_appends",
        "wal_bytes",
        "wal_fsyncs",
        "wal_compactions",
        "wal_recoveries",
        "wal_records_replayed",
        "wal_torn_tails",
        "wal_corrupt_records",
        # restart / power-loss chaos (repro.net.faults + repro.sim)
        "fault_restarts",
        "fault_power_losses",
        # real wire transport (repro.rpc)
        "rpc_requests",
        "rpc_responses",
        "rpc_retries",
        "rpc_timeouts",
        "rpc_udp_frames",
        "rpc_tcp_frames",
        "rpc_tcp_connects",
        "rpc_tcp_reuses",
        "rpc_oversized_fallbacks",
        "rpc_codec_errors",
        "rpc_bytes_sent",
        "rpc_bytes_received",
        "rpc_batches",
        "rpc_batched_messages",
        "rpc_thread_crossings",
        # security layer (repro.sec + repro.net.adversary)
        "sec_sign_calls",
        "sec_verify_calls",
        "sec_verify_failures",
        "sec_poisoned_answers",
        "sec_poisoned_results",
        "sec_forged_referrals",
        "sec_eclipse_drops",
        "sec_sybil_joins",
        "sec_trust_updates",
        "sec_entry_verify_failures",
        "sec_contradictions",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter (used by benchmarks and tests)."""
        for name in self.__slots__:
            setattr(self, name, 0)

    def snapshot(self) -> dict[str, int]:
        """Current counter values as a plain dict (JSON-serializable)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def cache_hit_rates(self) -> dict[str, float]:
        """Hit rate per cached operation, keyed by the calls counter name."""
        rates: dict[str, float] = {}
        for calls_name, hits_name, _ in CACHE_TRIPLES:
            calls = getattr(self, calls_name)
            if calls:
                rates[calls_name] = getattr(self, hits_name) / calls
        return rates

#: The process-wide counter instance every instrumented layer increments.
counters = PerfCounters()


def snapshot() -> dict[str, int]:
    """Shorthand for ``counters.snapshot()``."""
    return counters.snapshot()



def delta(before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
    """Counter increments between two snapshots (missing keys count as 0)."""
    return {name: after.get(name, 0) - before.get(name, 0) for name in after}
