"""Restart/power-loss chaos in the simulator, and WAL-backed recovery.

Covers the restart axis of the chaos matrix end to end: the
experiment's restart events (kill -> downtime -> recover-from-WAL ->
repair), determinism of the whole pipeline, and the durability
comparison -- a WAL run recovers entries locally where a
``durability=none`` run must re-replicate everything over the network.
"""

from dataclasses import replace

import pytest

from repro.sim.experiment import Experiment, ExperimentConfig
from repro.sim.presets import RESTART_CHAOS_SMOKE_CONFIG

TINY_RESTART = ExperimentConfig(
    num_nodes=24,
    num_articles=150,
    num_queries=900,
    num_authors=60,
    cache="single",
    replication=3,
    fault_drop_probability=0.02,
    restart_events=2,
    restart_downtime_queries=60,
    power_loss_events=1,
    durability="wal",
    fsync="never",  # every power loss is guaranteed to tear real bytes
)


def signature(trace):
    return (
        trace.query.key(),
        trace.found,
        trace.interactions,
        trace.retries,
        trace.failed_sends,
        tuple(trace.visited),
    )


def run_with_traces(config):
    experiment = Experiment(config)
    traces = []
    experiment.trace_sink = lambda trace: traces.append(signature(trace))
    result = experiment.run()
    return result, traces


class TestRestartEvents:
    @pytest.fixture(scope="class")
    def tiny_result(self):
        return run_with_traces(TINY_RESTART)

    def test_every_scheduled_restart_fires(self, tiny_result):
        result, _ = tiny_result
        assert result.restarts == 3
        assert result.power_losses == 1
        assert result.perf_counters["fault_restarts"] == 3
        assert result.perf_counters["fault_power_losses"] == 1

    def test_recovery_replayed_from_the_wal(self, tiny_result):
        result, _ = tiny_result
        assert result.recovered_entries > 0
        assert result.wal_records_replayed > 0
        assert result.recovery_replay_ms > 0.0
        # fsync=never: nothing past the header was synced, so the one
        # power loss must have torn a real tail.
        assert result.wal_torn_bytes > 0

    def test_post_restart_lookups_succeed(self, tiny_result):
        result, _ = tiny_result
        assert result.post_restart_searches > 0
        assert result.post_restart_found <= result.post_restart_searches
        assert result.post_restart_success_rate >= 0.95

    def test_restart_rows_render(self, tiny_result):
        result, _ = tiny_result
        rows = dict(result.availability_rows())
        assert "restarts (of which power losses)" in rows
        assert rows["restarts (of which power losses)"] == "3 (1)"
        assert "post-restart lookup success" in rows

    def test_result_validates(self, tiny_result):
        result, _ = tiny_result
        result.validate()


class TestRestartDeterminism:
    def test_same_seed_identical_runs(self):
        """Two restart-chaos runs with one seed are identical in every
        observable except wall-clock time (replay_ms, runtime)."""
        first_result, first_traces = run_with_traces(TINY_RESTART)
        second_result, second_traces = run_with_traces(TINY_RESTART)
        assert first_traces == second_traces
        assert first_result.restarts == second_result.restarts
        assert first_result.power_losses == second_result.power_losses
        assert first_result.recovered_entries == second_result.recovered_entries
        assert (
            first_result.wal_records_replayed
            == second_result.wal_records_replayed
        )
        assert first_result.wal_torn_bytes == second_result.wal_torn_bytes
        assert (
            first_result.post_restart_found == second_result.post_restart_found
        )
        assert first_result.repair_bytes == second_result.repair_bytes

    def test_restart_free_runs_report_nothing(self):
        """A config without restart events must not touch any restart
        machinery: zero counters, no extra report rows."""
        result, _ = run_with_traces(
            replace(
                TINY_RESTART,
                restart_events=0,
                power_loss_events=0,
                durability="none",
            )
        )
        assert result.restarts == 0
        assert result.power_losses == 0
        assert result.recovered_entries == 0
        assert result.post_restart_searches == 0
        assert result.restart_rows() == []

    def test_restart_schedule_is_seeded(self):
        def restarts(experiment):
            """position -> power-loss flag of the scheduled kills."""
            return {
                position: args[-1]
                for position, events in experiment._chaos_timeline().items()
                for handler, *args in events
                if handler == experiment._restart_event
            }

        first = Experiment(TINY_RESTART)
        second = Experiment(TINY_RESTART)
        assert restarts(first) == restarts(second)
        assert len(restarts(first)) == 3
        assert sum(restarts(first).values()) == 1  # one power loss
        first.close()
        second.close()


class TestDurabilityComparison:
    def test_wal_recovers_locally_where_none_repairs_remotely(self):
        """The point of the WAL: a recovered node replays its own state
        instead of pulling it all back over the network."""
        wal_result, _ = run_with_traces(TINY_RESTART)
        none_result, _ = run_with_traces(
            replace(TINY_RESTART, durability="none")
        )
        assert none_result.restarts == wal_result.restarts
        assert none_result.recovered_entries == 0
        assert wal_result.recovered_entries > 0
        # Same kills, but the none run re-replicates every lost entry.
        assert none_result.repair_bytes > wal_result.repair_bytes

    def test_invalid_durability_rejected(self):
        with pytest.raises(ValueError):
            replace(TINY_RESTART, durability="raid")
        with pytest.raises(ValueError):
            replace(TINY_RESTART, fsync="sometimes")
        with pytest.raises(ValueError):
            replace(TINY_RESTART, restart_events=-1)
        with pytest.raises(ValueError):
            replace(TINY_RESTART, restart_downtime_queries=0)


class TestSmokePreset:
    @pytest.fixture(scope="class")
    def smoke_result(self):
        return Experiment(RESTART_CHAOS_SMOKE_CONFIG).run()

    def test_acceptance_bar(self, smoke_result):
        # The restart-chaos acceptance bar: >= 99% lookup success after
        # recovery, with the kills actually happening.
        assert smoke_result.restarts == 3
        assert smoke_result.power_losses == 1
        assert smoke_result.post_restart_success_rate >= 0.99

    def test_recovery_happened_from_disk(self, smoke_result):
        assert smoke_result.recovered_entries > 0
        assert smoke_result.wal_records_replayed > 0


class TestBoundedCacheRecovery:
    def test_restarted_node_recovers_the_tail_of_its_journal(self):
        """``cache="lru10"``: a node whose cache overflowed before the
        kill comes back holding the shortcuts its journal wrote last --
        the order a restarting daemon replays them in too."""
        experiment = Experiment(
            replace(RESTART_CHAOS_SMOKE_CONFIG, cache="lru10")
        )
        journals = {}
        recover = experiment.walset.recover

        def recording_recover(node):
            durable = recover(node)
            journals[node] = list(durable.state.cache)
            return durable

        experiment.walset.recover = recording_recover
        recover_restarted = experiment._recover_restarted
        overflowed = 0

        def checking_recover_restarted(node, power_loss):
            nonlocal overflowed
            recover_restarted(node, power_loss)
            cache = experiment.service.caches[node]
            journaled = journals[node]
            overflowed += len(journaled) > cache.capacity
            assert len(cache) == min(len(journaled), cache.capacity)
            assert all(key in cache for key in journaled[-cache.capacity:])

        experiment._recover_restarted = checking_recover_restarted
        result = experiment.run()
        assert result.restarts == 3
        assert overflowed  # some journal was longer than the cache
