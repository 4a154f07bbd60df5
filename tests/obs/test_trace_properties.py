"""Property tests: structural trace invariants under arbitrary chaos.

Hypothesis drives small experiments across the configuration space --
concurrency, latency models, message faults, crashes, churn, replication
-- and every produced trace must satisfy the span grammar and the
accounting invariants the observability layer promises:

- spans are well-nested: one ``lookup_start`` first, one ``lookup_end``
  last, every other attributed event in between;
- timestamps are monotone (globally, and within every span);
- ``lookup_end.hops`` equals the number of ``dht_route_hop`` events
  attributed to the span;
- every ``retry`` is preceded by a ``delivery_error`` of the same
  exchange;
- the waited leg latencies plus backoff sum to ``elapsed_ms``, and the
  per-lookup elapsed times reproduce the run's response-time
  percentiles;
- under attack, the security events of one exchange stay on its span:
  a ``trust_update`` right after a ``sec_verify_fail`` of the same peer
  names the same ``(lookup, exchange)``, so does the step right after a
  ``poisoned_result``, and an engine contradiction names the lookup
  whose ``fetch_step`` follows it.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.stats import percentile
from repro.core.query import FieldQuery
from repro.obs.reader import TraceEvent, group_lookups
from repro.obs.tracer import TRACE_VERSION
from repro.sim.experiment import Experiment, ExperimentConfig
from tests.obs.spans import waited_latency_ms

configs = st.fixed_dictionaries(
    {
        "concurrency": st.sampled_from([1, 2, 8]),
        "latency_model": st.sampled_from(
            ["zero", "constant:20", "uniform:5:50"]
        ),
        "fault_drop_probability": st.sampled_from([0.0, 0.08]),
        "fault_duplicate_probability": st.sampled_from([0.0, 0.05]),
        "replication": st.sampled_from([1, 3]),
        "churn_events": st.sampled_from([0, 2]),
        "crash_events": st.sampled_from([0, 1]),
        "query_seed": st.integers(min_value=0, max_value=10_000),
        "churn_seed": st.integers(min_value=0, max_value=10_000),
        "adversary_poisoners": st.sampled_from([0, 2]),
        "adversary_liars": st.sampled_from([0, 2]),
        "verify_signatures": st.booleans(),
    }
).map(
    lambda draw: ExperimentConfig(
        cache="single",
        num_nodes=12,
        num_articles=60,
        num_queries=60,
        num_authors=24,
        crash_downtime_queries=20,
        trace=True,
        **draw,
    )
)


def run_and_parse(experiment):
    result = experiment.run()
    events = [
        TraceEvent.from_line(line)
        for line in experiment.tracer.jsonl_lines()
    ]
    return result, events, group_lookups(events)


def attribution_pairs(events):
    """Adjacent event pairs one exchange produces, as ``(pair kind,
    first, second)``: a forgery caught on the response leg (or in the
    answer's entries) and the trust penalty its sender takes; a forgery
    delivered unverified and the step that consumed it; an engine
    contradiction and the empty fetch that caused it."""
    pairs = []
    for event, after in zip(events, events[1:]):
        if (
            event.kind == "sec_verify_fail"
            and after.kind == "trust_update"
            and after.data["peer"] == event.data["destination"]
        ):
            pairs.append(("verify", event, after))
        elif event.kind == "poisoned_result" and after.kind in (
            "index_step", "fetch_step"
        ):
            pairs.append(("poisoned", event, after))
        elif (
            event.kind == "trust_update"
            and event.data["cause"] == "contradiction"
            and after.kind == "fetch_step"
        ):
            pairs.append(("contradiction", event, after))
    return pairs


def assert_attributed(events):
    for kind, first, second in attribution_pairs(events):
        if kind != "contradiction":
            assert (second.lookup, second.exchange) == (
                first.lookup, first.exchange
            ), f"{second.kind} left the span of its {first.kind}"
        else:
            assert first.lookup == second.lookup, (
                "contradiction names another lookup than its fetch"
            )


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(config=configs)
def test_trace_invariants(config):
    result, events, spans = run_and_parse(Experiment(config))

    # Envelope: a single leading header, dense sequence numbers, globally
    # monotone timestamps.
    assert events[0].kind == "trace_header"
    assert events[0].data["version"] == TRACE_VERSION
    assert sum(1 for event in events if event.kind == "trace_header") == 1
    assert [event.seq for event in events] == list(range(len(events)))
    assert all(
        later.t >= earlier.t for earlier, later in zip(events, events[1:])
    )

    # One span per issued query, ids dense from zero.
    assert len(spans) == result.searches == config.num_queries
    assert sorted(span.lookup_id for span in spans) == list(
        range(len(spans))
    )

    retries = failed_sends = found = cache_hits = 0
    for span in spans:
        kinds = [event.kind for event in span.events]

        # Well-nested: start opens, end closes, neither repeats.
        assert kinds[0] == "lookup_start"
        assert kinds[-1] == "lookup_end"
        assert kinds.count("lookup_start") == 1
        assert kinds.count("lookup_end") == 1

        # Monotone within the span.
        times = [event.t for event in span.events]
        assert all(b >= a for a, b in zip(times, times[1:]))

        # Hop accounting: the derived field equals the event count.
        end = span.end
        assert end.data["hops"] == span.hops

        # Interactions: one index/fetch step per completed exchange.
        assert end.data["interactions"] == span.chain_length + len(
            span.of_kind("fetch_step")
        )

        # Every retry is preceded by a delivery error on its exchange.
        errored_exchanges = set()
        for event in span.events:
            if event.kind == "delivery_error":
                errored_exchanges.add(event.exchange)
            elif event.kind == "retry":
                assert event.exchange in errored_exchanges, (
                    "retry without a prior delivery_error"
                )

        # Latency decomposition: waited legs + backoff == elapsed.
        assert waited_latency_ms(span) == pytest.approx(
            span.elapsed_ms, abs=1e-6
        )

        # Span outcome fields agree with the engine's bookkeeping.
        assert end.data["retries"] == len(span.of_kind("retry"))
        assert end.data["failed_sends"] == len(
            span.of_kind("delivery_error")
        )
        retries += end.data["retries"]
        failed_sends += end.data["failed_sends"]
        found += bool(end.data["found"])
        cache_hits += bool(end.data["cache_hit"])

    # Aggregates reconstructed from the trace match the result exactly.
    assert retries == result.total_retries
    assert failed_sends == result.total_failed_sends
    assert found == result.found
    assert cache_hits == result.cache_hits

    assert_attributed(events)

    # Kernel runs: per-lookup elapsed times reproduce the percentiles.
    if config.uses_kernel:
        elapsed = [span.elapsed_ms for span in spans]
        assert percentile(elapsed, 0.50) == pytest.approx(
            result.response_time_ms_p50
        )
        assert percentile(elapsed, 0.95) == pytest.approx(
            result.response_time_ms_p95
        )
        assert percentile(elapsed, 0.99) == pytest.approx(
            result.response_time_ms_p99
        )


#: Eight users' lookups overlapping on the kernel, traced.
OVERLAPPING = dict(
    num_nodes=60,
    num_articles=120,
    num_queries=150,
    num_authors=48,
    replication=3,
    cache="single",
    trace=True,
    concurrency=8,
    latency_model="uniform:10:100",
)


@pytest.mark.parametrize(
    "verify, kind", [(True, "verify"), (False, "poisoned")], ids=["verify", "open"]
)
def test_forgery_and_its_consequence_share_a_span(verify, kind):
    # Forgeries are traced while the response leg resumes on the
    # kernel, the penalty or the step when the lookup's stack resumes:
    # both must land on the exchange concerned, not on whichever lookup
    # moved the current span last.
    config = ExperimentConfig(
        adversary_poisoners=6,
        adversary_liars=3,
        verify_signatures=verify,
        **OVERLAPPING,
    )
    _, events, _ = run_and_parse(Experiment(config))
    pairs = [pair for pair in attribution_pairs(events) if pair[0] == kind]
    assert len(pairs) >= 5
    assert_attributed(events)


def test_engine_contradiction_names_its_own_lookup():
    # Every other record's file is removed behind the index, so each
    # lookup for one ends in an empty fetch the engine holds against
    # the node that referred it there.
    experiment = Experiment(ExperimentConfig(verify_signatures=True, **OVERLAPPING))
    experiment.populate()
    for record in experiment.corpus.records[::2]:
        msd = FieldQuery.msd_of(record).key()
        experiment.service.file_store.remove_key(msd)
    _, events, _ = run_and_parse(experiment)
    pairs = [
        pair for pair in attribution_pairs(events) if pair[0] == "contradiction"
    ]
    assert len(pairs) >= 10
    assert_attributed(events)
