"""Golden-trace replay: same seed, same bytes; tracing observes nothing.

Two guarantees pin the observability layer down:

- **Deterministic bytes.**  Re-running the churn-smoke and concurrent
  presets with the same seeds must export byte-identical JSONL traces --
  the trace is a pure function of the configuration.
- **Zero observer effect.**  A run with ``trace=True`` must produce an
  :class:`ExperimentResult` bit-identical to the untraced run's:
  recording reads simulation state but never draws randomness, counts
  bytes, or reorders events.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, replace

import pytest

from repro.sim.experiment import Experiment
from repro.sim.presets import CHURN_SMOKE_CONFIG, CONCURRENT_CONFIG, get_preset

#: Result fields excluded from bit-identity comparisons (wall clock and
#: process-global memo-cache warmup; see tests/sim/test_concurrent.py).
_NONDETERMINISTIC_FIELDS = ("runtime_seconds", "perf_counters")

#: The concurrent preset at test scale: the full chaos plan and the
#: 16-user kernel of CONCURRENT_CONFIG over a small corpus.
CONCURRENT_SMOKE = replace(
    CONCURRENT_CONFIG,
    num_nodes=30,
    num_articles=200,
    num_queries=600,
    num_authors=80,
    churn_events=4,
    crash_events=2,
    crash_downtime_queries=80,
)

PRESETS = {
    "churn-smoke": CHURN_SMOKE_CONFIG.scaled(0.25),
    "concurrent": CONCURRENT_SMOKE,
}


def run_traced(config):
    experiment = Experiment(replace(config, trace=True))
    result = experiment.run()
    return result, list(experiment.tracer.jsonl_lines())


def comparable(result):
    fields = asdict(result)
    for name in _NONDETERMINISTIC_FIELDS:
        fields.pop(name)
    return fields


@pytest.fixture(scope="module", params=sorted(PRESETS))
def replayed(request):
    """One preset run three ways: traced twice, untraced once."""
    config = PRESETS[request.param]
    first_result, first_lines = run_traced(config)
    second_result, second_lines = run_traced(config)
    untraced_result = Experiment(replace(config, trace=False)).run()
    return {
        "name": request.param,
        "config": config,
        "traced_results": (first_result, second_result),
        "lines": (first_lines, second_lines),
        "untraced_result": untraced_result,
    }


class TestGoldenReplay:
    def test_same_seed_traces_are_byte_identical(self, replayed):
        first, second = replayed["lines"]
        assert first == second, (
            f"{replayed['name']}: same-seed traces diverged"
        )

    def test_trace_is_nonempty_and_complete(self, replayed):
        lines, _ = replayed["lines"]
        result, _ = replayed["traced_results"]
        starts = sum(1 for line in lines if '"kind":"lookup_start"' in line)
        ends = sum(1 for line in lines if '"kind":"lookup_end"' in line)
        assert starts == ends == result.searches

    def test_traced_results_are_identical_across_runs(self, replayed):
        first, second = replayed["traced_results"]
        assert comparable(first) == comparable(second)


class TestObserverEffect:
    def test_tracing_changes_no_aggregate(self, replayed):
        traced, _ = replayed["traced_results"]
        untraced = replayed["untraced_result"]
        assert comparable(traced) == comparable(untraced), (
            f"{replayed['name']}: tracing perturbed the measurement"
        )

    def test_untraced_run_constructs_no_tracer(self, replayed):
        experiment = Experiment(replayed["config"])
        assert experiment.tracer is None
        assert experiment.engine.tracer is None
        assert experiment.transport.tracer is None
        assert experiment.index_store.tracer is None
        assert experiment.file_store.tracer is None


def test_figure15_credits_every_replica_that_answered():
    """Figure 15 counts the replicas a lookup touched, not those it
    followed: with verification and the trust ledger on, a withheld
    empty answer set aside for a second opinion still touched its
    replica.  Pinned as taken before Figure 15 moved from the traffic
    meter onto ``SearchTrace.touched``; counting ``trace.visited``
    instead sums to 247.47.
    """
    config = replace(get_preset("adversarial-smoke"), verify_signatures=True)
    result = Experiment(config).run()
    percentages = result.node_query_percentages
    assert len(percentages) == 53
    assert round(sum(percentages), 2) == 252.8
    digest = hashlib.sha256(json.dumps(percentages).encode()).hexdigest()
    assert digest[:16] == "894a58deecdf55fe"
