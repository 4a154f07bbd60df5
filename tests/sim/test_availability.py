"""Availability under chaos: determinism, zero-fault identity, churn preset."""

from dataclasses import replace

import pytest

from repro.sim.experiment import Experiment, ExperimentConfig
from repro.sim.presets import CHURN_SMOKE_CONFIG

TINY = ExperimentConfig(
    num_nodes=24,
    num_articles=120,
    num_queries=600,
    num_authors=60,
    cache="single",
    replication=3,
)

CHAOS = replace(
    TINY,
    fault_drop_probability=0.05,
    churn_events=4,
    churn_mode="poisson",
    crash_events=2,
    crash_downtime_queries=80,
)


def trace_signature(trace):
    """Every observable field of a SearchTrace, as a comparable tuple."""
    return (
        trace.query.key(),
        trace.found,
        trace.interactions,
        trace.errors,
        trace.retries,
        trace.failed_sends,
        trace.gave_up,
        trace.generalized,
        trace.cache_hit,
        trace.hit_interaction,
        tuple(trace.visited),
        trace.result_msd,
    )


def run_with_traces(config, bare_transport=False):
    experiment = Experiment(config)
    if bare_transport:
        # Strip the fault wrapper: handlers were registered through it,
        # but live on the inner transport, so the stack keeps working.
        experiment.service.transport = experiment.transport.inner
        experiment.transport = experiment.transport.inner
    traces = []
    experiment.trace_sink = lambda trace: traces.append(
        trace_signature(trace)
    )
    result = experiment.run()
    return result, traces


class TestSeededDeterminism:
    def test_same_seed_identical_trace_streams(self):
        """Two chaos runs with one seed are bit-identical, trace by trace."""
        first_result, first_traces = run_with_traces(CHAOS)
        second_result, second_traces = run_with_traces(CHAOS)
        assert first_traces == second_traces
        assert first_result.success_rate == second_result.success_rate
        assert first_result.total_retries == second_result.total_retries
        assert first_result.fault_drops == second_result.fault_drops
        assert first_result.normal_bytes_total == second_result.normal_bytes_total

    def test_different_seed_different_chaos(self):
        _, first_traces = run_with_traces(CHAOS)
        _, second_traces = run_with_traces(replace(CHAOS, churn_seed=99))
        assert first_traces != second_traces


class TestZeroFaultIdentity:
    def test_zero_plan_matches_bare_transport_bit_for_bit(self):
        """The always-on FaultyTransport wrapper must be invisible when
        the plan is zero: same traces, same bytes as no wrapper at all."""
        wrapped_result, wrapped_traces = run_with_traces(TINY)
        bare_result, bare_traces = run_with_traces(TINY, bare_transport=True)
        assert wrapped_traces == bare_traces
        assert wrapped_result.normal_bytes_total == bare_result.normal_bytes_total
        assert wrapped_result.cache_bytes_total == bare_result.cache_bytes_total
        assert wrapped_result.avg_interactions == bare_result.avg_interactions

    def test_zero_plan_ignores_chaos_seed(self):
        """With no faults configured, the chaos seed must not leak into
        the run at all -- no draw ever consumes it."""
        _, first_traces = run_with_traces(TINY)
        _, second_traces = run_with_traces(replace(TINY, churn_seed=12345))
        assert first_traces == second_traces

    def test_zero_plan_run_reports_no_faults(self):
        result, _ = run_with_traces(TINY)
        assert result.success_rate == 1.0
        assert result.total_retries == 0
        assert result.total_failed_sends == 0
        assert result.lookups_gave_up == 0
        assert result.fault_drops == 0
        assert result.fault_crashed_sends == 0


class TestChurnPreset:
    @pytest.fixture(scope="class")
    def smoke_result(self):
        return Experiment(CHURN_SMOKE_CONFIG).run()

    def test_availability_meets_bar(self, smoke_result):
        # The acceptance bar: >= 95% lookup success under 5% message
        # loss, Poisson churn, and transient crashes.
        assert smoke_result.success_rate >= 0.95

    def test_failures_actually_happened(self, smoke_result):
        # The bar must be met *because of* retries and failover, not
        # because the chaos knobs silently did nothing.
        assert smoke_result.fault_drops > 0
        assert smoke_result.total_retries > 0
        assert smoke_result.fault_crashed_sends > 0
        assert smoke_result.service_failovers > 0

    def test_repair_traffic_measured(self, smoke_result):
        assert smoke_result.repair_keys > 0
        assert smoke_result.repair_bytes > 0

    def test_result_validates(self, smoke_result):
        smoke_result.validate()

    def test_availability_rows_render(self, smoke_result):
        rows = {label: value for label, value in smoke_result.availability_rows()}
        assert rows["lookup success rate"].endswith("%")
        assert rows["injected drops"] == smoke_result.fault_drops


def churn_positions(config):
    """Query positions of the churn events on a config's chaos timeline."""
    experiment = Experiment(config)
    return {
        position
        for position, events in experiment._chaos_timeline().items()
        for handler, *_ in events
        if handler == experiment._churn_event
    }


class TestPoissonChurn:
    def test_poisson_schedule_seeded(self):
        assert churn_positions(CHAOS) == churn_positions(CHAOS)

    def test_poisson_schedule_varies_with_seed(self):
        assert churn_positions(CHAOS) != churn_positions(
            replace(CHAOS, churn_seed=4242)
        )

    def test_poisson_event_count_near_rate(self):
        config = replace(
            CHAOS, num_queries=5_000, churn_events=50, crash_events=0
        )
        # Binomial(5000, 0.01): within 5 sigma of the mean of 50.
        assert 15 <= len(churn_positions(config)) <= 90

    def test_invalid_churn_mode_rejected(self):
        with pytest.raises(ValueError):
            replace(TINY, churn_mode="burst")
