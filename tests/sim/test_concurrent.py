"""Concurrent kernel-mode experiments: determinism and latency accounting.

The tentpole invariants of the virtual-time refactor:

- same seed + same config => identical lookup completion order and an
  identical :class:`ExperimentResult` (including the response-time
  percentiles) across repeated runs, on the ideal ring and on Chord;
- a single user with zero added latency reproduces the sequential
  driver's results exactly (the kernel is pure plumbing);
- response times grow with the substrate's hop count (ideal < Chord).
"""

from dataclasses import asdict, replace

import pytest

from repro.sim.experiment import Experiment, ExperimentConfig
from repro.sim.presets import (
    ADVERSARIAL_SMOKE_CONFIG,
    CHURN_SMOKE_CONFIG,
    RESTART_CHAOS_SMOKE_CONFIG,
)

TINY = ExperimentConfig(
    num_nodes=30,
    num_articles=200,
    num_queries=250,
    num_authors=80,
)

#: Result fields excluded from bit-identity comparisons: wall-clock
#: runtime, and the hot-path perf counters whose process-global memo
#: caches warm up across runs in one process.
_NONDETERMINISTIC_FIELDS = ("runtime_seconds", "perf_counters")


def trace_signature(trace):
    return (
        trace.query.key(),
        trace.found,
        trace.interactions,
        trace.errors,
        trace.retries,
        trace.failed_sends,
        trace.gave_up,
        trace.cache_hit,
        tuple(trace.visited),
    )


def run_with_traces(config):
    experiment = Experiment(config)
    signatures = []
    experiment.trace_sink = lambda trace: signatures.append(
        trace_signature(trace)
    )
    result = experiment.run()
    return result, signatures


def comparable(result):
    fields = asdict(result)
    for name in _NONDETERMINISTIC_FIELDS:
        fields.pop(name)
    return fields


class TestDeterminism:
    @pytest.mark.parametrize("substrate", ["ideal", "chord"])
    def test_same_seed_same_run(self, substrate):
        config = replace(
            TINY,
            substrate=substrate,
            concurrency=8,
            latency_model="uniform:10:100",
        )
        first, first_traces = run_with_traces(config)
        second, second_traces = run_with_traces(config)
        # Identical completion order (the event interleaving is a pure
        # function of the seeds) and identical measurements, including
        # the latency percentiles.
        assert first_traces == second_traces
        assert comparable(first) == comparable(second)
        assert first.response_time_ms_p99 == second.response_time_ms_p99

    def test_open_loop_arrivals_deterministic(self):
        config = replace(
            TINY,
            concurrency=4,
            latency_model="uniform:10:100",
            arrival_interval_ms=20.0,
        )
        first, first_traces = run_with_traces(config)
        second, second_traces = run_with_traces(config)
        assert first_traces == second_traces
        assert comparable(first) == comparable(second)
        assert first.searches == config.num_queries


#: The chaos cells the two drivers must replay identically, beside the
#: reliable one: churn + crashes + drops, restart chaos over the WAL,
#: and the Byzantine population with the trust ledger off and on
#: (second opinions, contradiction penalties, trusted-first ordering).
CHAOS_CELLS = {
    "churn-smoke": CHURN_SMOKE_CONFIG.scaled(0.25),
    "restart-chaos-smoke": RESTART_CHAOS_SMOKE_CONFIG,
    "adversarial-smoke-unverified": replace(
        ADVERSARIAL_SMOKE_CONFIG, verify_signatures=False
    ),
    "adversarial-smoke-verified": replace(
        ADVERSARIAL_SMOKE_CONFIG, verify_signatures=True
    ),
}

#: What legitimately differs between the drivers: the mode label, the
#: clock's own outputs, and wall-clock disk replay.
_DRIVER_FIELDS = (
    "latency_model",
    "virtual_time_ms",
    "response_time_ms_mean",
    "response_time_ms_p50",
    "response_time_ms_p95",
    "response_time_ms_p99",
    "recovery_replay_ms",
)


def assert_kernel_replays_sequential(sequential):
    # constant:0 forces the kernel path (uses_kernel is True) while
    # keeping delivery instantaneous and the user population at 1,
    # so every exchange happens in the sequential order.
    kernel = replace(sequential, latency_model="constant:0")
    assert not sequential.uses_kernel
    assert kernel.uses_kernel

    seq_result, seq_traces = run_with_traces(sequential)
    ker_result, ker_traces = run_with_traces(kernel)
    assert seq_traces == ker_traces
    seq_fields = comparable(seq_result)
    ker_fields = comparable(ker_result)
    for name in _DRIVER_FIELDS:
        seq_fields.pop(name)
        ker_fields.pop(name)
    assert seq_fields == ker_fields


class TestSequentialEquivalence:
    def test_single_user_zero_latency_matches_sequential_driver(self):
        assert_kernel_replays_sequential(replace(TINY, cache="single"))

    @pytest.mark.parametrize("cell", sorted(CHAOS_CELLS))
    def test_drivers_agree_on_every_chaos_cell(self, cell):
        assert_kernel_replays_sequential(CHAOS_CELLS[cell])

    def test_concurrent_reliable_run_matches_sequential_aggregates(self):
        # Without faults or caches, per-query interaction counts are
        # independent of the interleaving: overlap changes *when*
        # exchanges happen, never their outcome.
        sequential = Experiment(TINY).run()
        concurrent = Experiment(
            replace(TINY, concurrency=8, latency_model="uniform:10:100")
        ).run()
        assert concurrent.searches == sequential.searches
        assert concurrent.found == sequential.found
        assert concurrent.total_interactions == sequential.total_interactions
        assert concurrent.normal_bytes_total == sequential.normal_bytes_total
        assert (
            concurrent.node_query_percentages
            == sequential.node_query_percentages
        )


class TestLatencyAccounting:
    def test_response_time_grows_with_hop_count(self):
        times = {}
        for substrate in ("ideal", "chord"):
            config = replace(
                TINY,
                substrate=substrate,
                concurrency=8,
                latency_model="constant:50",
            )
            result = Experiment(config).run()
            assert result.avg_dht_hops >= 1.0
            times[substrate] = result.response_time_ms_p50
        # Chord resolves a key over multiple overlay hops; the ideal
        # ring routes in one.  Request legs scale with the hop count.
        assert times["ideal"] < times["chord"]

    def test_virtual_clock_only(self):
        config = replace(TINY, concurrency=8, latency_model="uniform:10:100")
        result = Experiment(config).run()
        assert result.virtual_time_ms > 0
        # The whole virtual run takes far less wall-clock time than its
        # simulated duration: nothing ever sleeps.
        assert result.runtime_seconds < result.virtual_time_ms / 1000.0


class TestChurnPresetConcurrent:
    def test_churn_feed_completes_with_nondegenerate_percentiles(self):
        config = replace(
            CHURN_SMOKE_CONFIG,
            num_queries=800,
            concurrency=16,
            latency_model="uniform:10:100",
        )
        first, first_traces = run_with_traces(config)
        second, second_traces = run_with_traces(config)
        assert first_traces == second_traces
        assert comparable(first) == comparable(second)
        assert first.searches == config.num_queries
        assert 0.0 < first.response_time_ms_p50
        assert (
            first.response_time_ms_p50
            <= first.response_time_ms_p95
            <= first.response_time_ms_p99
        )
        assert first.response_time_ms_p99 > first.response_time_ms_p50
        assert first.success_rate > 0.9
