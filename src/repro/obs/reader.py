"""Reload an exported JSONL trace for analysis.

The reader is the inverse of :meth:`repro.obs.tracer.Tracer.write_jsonl`:
it parses one JSON object per line back into :class:`TraceEvent` records
and groups them into :class:`LookupTrace` spans, preserving event order.
Analysis code (and the ``python -m repro.obs summarize`` command) works
on these structures, never on raw lines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

#: Keys every event carries, in serialization order; everything else is
#: kind-specific payload exposed through ``TraceEvent.data``.
_ENVELOPE_KEYS = ("seq", "t", "kind", "lookup", "exchange")


class TraceReadError(ValueError):
    """Raised on malformed trace files (bad JSON, missing envelope)."""


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event: the envelope plus its kind-specific payload."""

    seq: int
    t: float
    kind: str
    lookup: Optional[int]
    exchange: Optional[int]
    data: dict

    @classmethod
    def from_line(cls, line: str) -> "TraceEvent":
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as error:
            raise TraceReadError(f"malformed trace line: {error}") from error
        if not isinstance(raw, dict) or any(
            key not in raw for key in _ENVELOPE_KEYS
        ):
            raise TraceReadError(f"trace line missing envelope keys: {line!r}")
        payload = {
            key: value
            for key, value in raw.items()
            if key not in _ENVELOPE_KEYS
        }
        return cls(
            seq=raw["seq"],
            t=raw["t"],
            kind=raw["kind"],
            lookup=raw["lookup"],
            exchange=raw["exchange"],
            data=payload,
        )


@dataclass
class LookupTrace:
    """All events of one lookup span, in recording order."""

    lookup_id: int
    events: list[TraceEvent] = field(default_factory=list)

    def of_kind(self, kind: str) -> list[TraceEvent]:
        """The span's events of one kind, in order."""
        return [event for event in self.events if event.kind == kind]

    @property
    def end(self) -> Optional[TraceEvent]:
        tail = self.of_kind("lookup_end")
        return tail[-1] if tail else None

    @property
    def chain_length(self) -> int:
        """Index interactions the lookup performed (Fig 13/15 anatomy)."""
        return len(self.of_kind("index_step"))

    @property
    def hops(self) -> int:
        """Route-hop events attributed to the span."""
        return len(self.of_kind("dht_route_hop"))

    @property
    def elapsed_ms(self) -> float:
        end = self.end
        return float(end.data["elapsed_ms"]) if end else 0.0

    @property
    def found(self) -> bool:
        end = self.end
        return bool(end.data.get("found")) if end else False


@dataclass
class TraceFile:
    """A fully parsed trace: header facts, raw events, grouped spans."""

    header: dict
    events: list[TraceEvent]
    lookups: list[LookupTrace]


def iter_events(path: str) -> Iterator[TraceEvent]:
    """Stream a trace file's events without grouping them."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield TraceEvent.from_line(line)


def group_lookups(events: Iterable[TraceEvent]) -> list[LookupTrace]:
    """Group events into per-lookup spans, ordered by first appearance."""
    spans: dict[int, LookupTrace] = {}
    for event in events:
        if event.lookup is None:
            continue
        span = spans.get(event.lookup)
        if span is None:
            span = spans[event.lookup] = LookupTrace(event.lookup)
        span.events.append(event)
    return list(spans.values())


def load_trace(path: str) -> TraceFile:
    """Parse a JSONL trace file into header, events, and lookup spans."""
    events = list(iter_events(path))
    header: dict = {}
    if events and events[0].kind == "trace_header":
        header = dict(events[0].data)
    return TraceFile(
        header=header, events=events, lookups=group_lookups(events)
    )
