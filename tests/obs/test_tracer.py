"""Unit tests for the tracer and the JSONL reader round trip."""

from __future__ import annotations

import json

import pytest

from repro.obs.reader import (
    TraceEvent,
    TraceReadError,
    group_lookups,
    load_trace,
)
from repro.obs.tracer import TRACE_VERSION, Tracer
from tests.obs.spans import visited_nodes, waited_latency_ms


class FakeKernel:
    """A stand-in clock the tracer can bind to."""

    def __init__(self) -> None:
        self.now = 0.0


def make_span(tracer: Tracer) -> int:
    """Record one complete, found lookup span by hand."""
    lookup = tracer.begin_lookup("/article/title/TCP", "user:0")
    exchange = tracer.open_exchange(lookup)
    tracer.set_context(lookup, exchange)
    tracer.route_hop(
        src="user:0", dst="node:a", message="query_request",
        legs=2, latency_ms=10.0, leg="request", ref=tracer.current,
    )
    tracer.route_hop(
        src="node:a", dst="user:0", message="query_response",
        legs=1, latency_ms=5.0, leg="response", ref=tracer.current,
    )
    tracer.index_step(
        lookup, exchange, node=17, query="/article/title/TCP",
        cache_hit=False, entries=1, shortcuts=0, file_found=False,
    )
    tracer.end_lookup(lookup, found=True, gave_up=False)
    return lookup


class TestTracerEvents:
    def test_header_is_first_event_and_carries_meta(self):
        tracer = Tracer(meta={"scheme": "simple", "query_seed": 42})
        header = tracer.events[0]
        assert header["kind"] == "trace_header"
        assert header["version"] == TRACE_VERSION
        assert header["scheme"] == "simple"
        assert header["query_seed"] == 42

    def test_lookup_ids_are_dense_and_sequential(self):
        tracer = Tracer()
        assert make_span(tracer) == 0
        assert make_span(tracer) == 1
        assert make_span(tracer) == 2

    def test_exchange_ids_count_per_lookup(self):
        tracer = Tracer()
        first = tracer.begin_lookup("/article/conf/INFOCOM", "user:0")
        assert tracer.open_exchange(first) == 1
        assert tracer.open_exchange(first) == 2
        tracer.end_lookup(first, found=False, gave_up=True)
        second = tracer.begin_lookup("/article/conf/INFOCOM", "user:1")
        assert tracer.open_exchange(second) == 1

    def test_end_lookup_derives_hops_and_elapsed(self):
        tracer = Tracer()
        kernel = FakeKernel()
        tracer.bind_clock(kernel)
        kernel.now = 100.0
        lookup = tracer.begin_lookup("/article/year/1996", "user:0")
        tracer.route_hop(
            src="user:0", dst="node:b", message="query_request",
            legs=1, latency_ms=25.0, leg="request", ref=(lookup, 1),
        )
        kernel.now = 125.0
        tracer.end_lookup(lookup, found=True, gave_up=False)
        end = tracer.events[-1]
        assert end["kind"] == "lookup_end"
        assert end["hops"] == 1
        assert end["elapsed_ms"] == 25.0

    def test_unattributed_hop_does_not_count_toward_any_span(self):
        tracer = Tracer()
        lookup = tracer.begin_lookup("/article/title/IPv6", "user:0")
        tracer.route_hop(
            src="user:0", dst="node:c", message="query_request",
            legs=1, latency_ms=7.0, leg="request", ref=None,
        )
        tracer.end_lookup(lookup, found=False, gave_up=False)
        end = tracer.events[-1]
        assert end["hops"] == 0
        hop = tracer.events[-2]
        assert hop["lookup"] is None and hop["exchange"] is None

    def test_current_pointer_set_and_cleared(self):
        tracer = Tracer()
        assert tracer.current is None
        lookup = tracer.begin_lookup("/article/author/Smith", "user:0")
        assert tracer.current == (lookup, None)
        tracer.set_context(lookup, 3)
        assert tracer.current == (lookup, 3)
        tracer.end_lookup(lookup, found=True, gave_up=False)
        assert tracer.current is None

    def test_activated_restores_previous_context(self):
        tracer = Tracer()
        lookup = tracer.begin_lookup("/article/conf/SIGCOMM", "user:0")
        tracer.set_context(lookup, 1)
        with tracer.activated(None):
            assert tracer.current is None
            with tracer.activated((lookup, 2)):
                assert tracer.current == (lookup, 2)
            assert tracer.current is None
        assert tracer.current == (lookup, 1)

    def test_sequence_numbers_are_dense_from_zero(self):
        tracer = Tracer()
        make_span(tracer)
        make_span(tracer)
        assert [event["seq"] for event in tracer.events] == list(
            range(len(tracer.events))
        )


class TestSerialization:
    def test_jsonl_lines_are_compact_with_fixed_envelope_order(self):
        tracer = Tracer()
        make_span(tracer)
        for line in tracer.jsonl_lines():
            assert ": " not in line and ", " not in line
            keys = list(json.loads(line).keys())
            assert keys[:5] == ["seq", "t", "kind", "lookup", "exchange"]

    def test_write_and_load_round_trip(self, tmp_path):
        tracer = Tracer(meta={"scheme": "flat"})
        make_span(tracer)
        make_span(tracer)
        path = tmp_path / "trace.jsonl"
        written = tracer.write_jsonl(str(path))
        assert written == len(tracer.events)

        trace = load_trace(str(path))
        assert trace.header["scheme"] == "flat"
        assert trace.header["version"] == TRACE_VERSION
        assert len(trace.events) == written
        assert [span.lookup_id for span in trace.lookups] == [0, 1]
        for span in trace.lookups:
            assert span.of_kind("lookup_start") and span.end is not None
            assert span.chain_length == 1
            assert span.hops == 2
            assert span.found
            assert visited_nodes(span) == {17}
            assert waited_latency_ms(span) == pytest.approx(15.0)

    def test_same_events_serialize_to_identical_bytes(self):
        first, second = Tracer(meta={"seed": 9}), Tracer(meta={"seed": 9})
        make_span(first)
        make_span(second)
        assert list(first.jsonl_lines()) == list(second.jsonl_lines())


class TestReader:
    def test_malformed_json_raises_typed_error(self):
        with pytest.raises(TraceReadError):
            TraceEvent.from_line("{not json")

    def test_missing_envelope_raises_typed_error(self):
        with pytest.raises(TraceReadError):
            TraceEvent.from_line('{"seq": 0, "kind": "x"}')

    def test_payload_split_from_envelope(self):
        event = TraceEvent.from_line(
            '{"seq":4,"t":1.5,"kind":"retry","lookup":2,"exchange":1,'
            '"attempt":1,"backoff_units":2}'
        )
        assert event.seq == 4 and event.t == 1.5
        assert event.kind == "retry"
        assert (event.lookup, event.exchange) == (2, 1)
        assert event.data == {"attempt": 1, "backoff_units": 2}

    def test_group_lookups_skips_unattributed_events(self):
        tracer = Tracer()
        make_span(tracer)
        tracer.route_hop(
            src="user:0", dst="node:d", message="query_request",
            legs=1, latency_ms=1.0, leg="request", ref=None,
        )
        events = [
            TraceEvent.from_line(line) for line in tracer.jsonl_lines()
        ]
        spans = group_lookups(events)
        assert len(spans) == 1
        assert all(
            event.lookup == spans[0].lookup_id for event in spans[0].events
        )

    def test_load_trace_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trace(str(tmp_path / "absent.jsonl"))
