"""The tracer: typed per-lookup spans on the virtual clock.

One :class:`Tracer` instance observes one experiment (or one hand-built
stack in a test).  The instrumented layers call its typed recording
methods; every call appends one event -- a plain dict with a fixed key
order -- to an in-memory list that :meth:`Tracer.write_jsonl` exports as
one JSON object per line.

Design constraints, all pinned by tests:

- **Zero overhead when off.**  The tracer is threaded through the stack
  as an optional reference defaulting to ``None``; every call site is
  guarded by ``if tracer is not None``.  No tracer object exists in an
  untraced run.
- **Zero observer effect when on.**  Recording only *reads* simulation
  state: no random draws, no perf-counter increments, no messages.  A
  traced run's aggregate metrics are bit-identical to an untraced run's.
- **Deterministic bytes.**  Events are appended in program order, which
  the seeded simulation makes deterministic; timestamps come from the
  deterministic virtual clock; serialization is canonical (fixed key
  order, compact separators).  Same seed, same bytes.

Span structure: each lookup is a span (``lookup`` id) opened by
``lookup_start`` and closed by ``lookup_end``; each message exchange
within it -- including retransmissions -- is a child span (``exchange``
id, unique per lookup) linked to its parent by the ``lookup`` field.
Events carry both ids, so a reader can reconstruct the nesting without
separate exchange start/end markers.

Attribution across layers uses :attr:`Tracer.current`, the span
reference of the lookup being advanced *right now*: the engine sets it
when it opens an exchange, so the transport -- which knows nothing about
lookups -- can attribute its events to the correct span even while many
lookups are in flight.  Work that resumes later on the kernel re-activates
a captured reference via :meth:`Tracer.activated`: a lookup's stack the
span it last yielded under, a delivery's legs the span of its send.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Optional

if TYPE_CHECKING:
    from repro.net.message import Message
    from repro.sim.kernel import EventKernel

#: Reference to the span an event belongs to: ``(lookup id, exchange id)``
#: where the exchange id is ``None`` for lookup-level events.
SpanRef = tuple[int, Optional[int]]

#: Trace format version, stamped into the header event.
TRACE_VERSION = 1


class _LiveLookup:
    """Mutable per-lookup bookkeeping while the span is open."""

    __slots__ = ("started_at", "hop_events", "exchanges")

    def __init__(self, started_at: float) -> None:
        self.started_at = started_at
        #: ``dht_route_hop`` events attributed to this lookup so far.
        self.hop_events = 0
        #: Exchange (child-span) ids handed out so far.
        self.exchanges = 0


class Tracer:
    """Records typed, timestamped events into per-lookup spans."""

    def __init__(self, meta: Optional[Mapping[str, object]] = None) -> None:
        """``meta`` (experiment configuration facts: substrate, scheme,
        seeds, ...) is stamped into the leading ``trace_header`` event."""
        self._clock: Callable[[], float] = lambda: 0.0
        self.events: list[dict] = []
        self._seq = 0
        self._next_lookup = 0
        self._live: dict[int, _LiveLookup] = {}
        #: Span of the lookup currently being advanced (see module doc).
        self.current: Optional[SpanRef] = None
        header = {"version": TRACE_VERSION}
        if meta:
            header.update(meta)
        self._emit("trace_header", None, None, header)

    # -- clock --------------------------------------------------------------

    def bind_clock(self, kernel: "EventKernel") -> None:
        """Timestamp subsequent events with the kernel's virtual time."""
        self._clock = lambda: kernel.now

    # -- span plumbing ------------------------------------------------------

    def set_context(self, lookup: int, exchange: Optional[int]) -> None:
        """Mark the span the next cross-layer events belong to."""
        self.current = (lookup, exchange)

    @contextmanager
    def activated(self, ref: Optional[SpanRef]) -> Iterator[None]:
        """Temporarily re-activate a captured span reference.

        Used by continuations firing on the kernel (failover attempts,
        message legs) so that transport-level events they trigger are
        attributed to the right lookup -- or, with ``ref=None``, to no
        lookup at all -- regardless of what ``current`` points at.
        """
        previous = self.current
        self.current = ref
        try:
            yield
        finally:
            self.current = previous

    def open_exchange(self, lookup: int) -> int:
        """Allocate the next exchange (child-span) id of a lookup."""
        live = self._live[lookup]
        live.exchanges += 1
        return live.exchanges

    # -- recording ----------------------------------------------------------

    def _emit(
        self,
        kind: str,
        lookup: Optional[int],
        exchange: Optional[int],
        fields: Mapping[str, object],
    ) -> None:
        event: dict = {
            "seq": self._seq,
            "t": self._clock() if kind != "trace_header" else 0.0,
            "kind": kind,
            "lookup": lookup,
            "exchange": exchange,
        }
        event.update(fields)
        self._seq += 1
        self.events.append(event)

    def begin_lookup(self, query_key: str, user: str) -> int:
        """Open a lookup span; returns its id (also left in ``current``)."""
        lookup = self._next_lookup
        self._next_lookup += 1
        self._live[lookup] = _LiveLookup(self._clock())
        self.current = (lookup, None)
        self._emit("lookup_start", lookup, None, {"query": query_key, "user": user})
        return lookup

    def end_lookup(self, lookup: int, **outcome: object) -> None:
        """Close a lookup span with its outcome fields.

        Adds the derived ``hops`` (number of ``dht_route_hop`` events
        attributed to the span) and ``elapsed_ms`` (virtual time since
        ``lookup_start``) fields.
        """
        live = self._live.pop(lookup)
        fields = dict(outcome)
        fields["hops"] = live.hop_events
        fields["elapsed_ms"] = self._clock() - live.started_at
        self._emit("lookup_end", lookup, None, fields)
        if self.current is not None and self.current[0] == lookup:
            self.current = None

    def index_step(
        self,
        lookup: int,
        exchange: Optional[int],
        *,
        node: int,
        query: str,
        cache_hit: bool,
        entries: int,
        shortcuts: int,
        file_found: bool,
    ) -> None:
        """One resolved index interaction: the answer a node returned."""
        self._emit(
            "index_step",
            lookup,
            exchange,
            {
                "node": node,
                "query": query,
                "cache_hit": cache_hit,
                "entries": entries,
                "shortcuts": shortcuts,
                "file_found": file_found,
            },
        )

    def fetch_step(
        self,
        lookup: int,
        exchange: Optional[int],
        *,
        node: int,
        query: str,
        found: bool,
    ) -> None:
        """The storage-level file fetch terminating a chain."""
        self._emit(
            "fetch_step",
            lookup,
            exchange,
            {"node": node, "query": query, "found": found},
        )

    def route_hop(
        self,
        *,
        src: str,
        dst: str,
        message: str,
        legs: int,
        latency_ms: float,
        leg: str,
        ref: Optional[SpanRef] = None,
    ) -> None:
        """One transport traversal: a request, response, or error leg.

        ``legs`` is the number of overlay hops charged (requests pay the
        substrate's routing path, responses return direct);
        ``latency_ms`` is the delay charged for the whole leg (virtual,
        or the measured round trip on a socket's response leg).
        """
        lookup, exchange = ref if ref is not None else (None, None)
        if lookup is not None and lookup in self._live:
            self._live[lookup].hop_events += 1
        self._emit(
            "dht_route_hop",
            lookup,
            exchange,
            {
                "src": src,
                "dst": dst,
                "message": message,
                "legs": legs,
                "latency_ms": latency_ms,
                "leg": leg,
            },
        )

    def message_hop(
        self,
        message: "Message",
        leg: str,
        latency_ms: float,
        ref: Optional[SpanRef],
    ) -> None:
        """:meth:`route_hop` of one metered message, for either transport."""
        self.route_hop(
            src=message.source,
            dst=message.destination,
            message=message.kind.value,
            legs=max(1, message.route_hops),
            latency_ms=latency_ms,
            leg=leg,
            ref=ref,
        )

    def delivery_error(
        self,
        lookup: int,
        exchange: Optional[int],
        *,
        reason: str,
        destination: str,
    ) -> None:
        """A message exchange failed (dropped / crashed / departed)."""
        self._emit(
            "delivery_error",
            lookup,
            exchange,
            {"reason": reason, "destination": destination},
        )

    def retry(
        self,
        lookup: int,
        exchange: Optional[int],
        *,
        attempt: int,
        backoff_units: int,
    ) -> None:
        """The engine re-transmits a failed exchange after backoff."""
        self._emit(
            "retry",
            lookup,
            exchange,
            {"attempt": attempt, "backoff_units": backoff_units},
        )

    def backoff(
        self, lookup: int, exchange: Optional[int], *, wait_ms: float
    ) -> None:
        """A retry backoff period elapsing (``wait_ms`` on the clock)."""
        self._emit("backoff", lookup, exchange, {"wait_ms": wait_ms})

    def failover(
        self,
        *,
        key: str,
        node: object,
        attempt: int,
        level: str,
        ref: Optional[SpanRef] = None,
        use_current: bool = False,
    ) -> None:
        """A request redirected to another replica of ``key``.

        ``level`` distinguishes service-level replica failover from the
        storage layer skipping a dead copy.
        """
        if use_current:
            ref = self.current
        lookup, exchange = ref if ref is not None else (None, None)
        self._emit(
            "failover",
            lookup,
            exchange,
            {"key": key, "node": node, "attempt": attempt, "level": level},
        )

    def node_recovery(
        self,
        *,
        node: int,
        power_loss: bool,
        entries: int,
        cache_entries: int,
        wal_records: int,
        torn_bytes: int,
        replay_ms: float,
    ) -> None:
        """A restarted node replayed its durable state (chaos runs).

        Not attributed to any lookup span -- recovery happens between
        queries, on the maintenance path.  ``replay_ms`` is measured
        wall time (disk replay is real I/O), the one field exempt from
        the same-seed/same-bytes guarantee; every other field here is
        deterministic.
        """
        self._emit(
            "node_recovery",
            None,
            None,
            {
                "node": node,
                "power_loss": power_loss,
                "entries": entries,
                "cache_entries": cache_entries,
                "wal_records": wal_records,
                "torn_bytes": torn_bytes,
                "replay_ms": replay_ms,
            },
        )

    def cache_insert(self, *, node: int, query: str, msd: str) -> None:
        """A shortcut-creation attempt on a traversed node."""
        lookup, exchange = self.current if self.current is not None else (None, None)
        self._emit(
            "cache_insert",
            lookup,
            exchange,
            {"node": node, "query": query, "msd": msd},
        )

    # -- security events (adversarial runs, repro.sec) ----------------------

    def sec_verify_fail(self, *, destination: str, role: str) -> None:
        """A response failed signature verification and was discarded.

        ``role`` names the adversary class that produced the forged
        frame (``poisoner`` / ``liar`` / ``sybil``) in simulation runs,
        or ``unknown`` on a real transport where only the failure is
        observable.
        """
        lookup, exchange = self.current if self.current is not None else (None, None)
        self._emit(
            "sec_verify_fail",
            lookup,
            exchange,
            {"destination": destination, "role": role},
        )

    def poisoned_result(self, *, destination: str, key: str) -> None:
        """A fabricated (unverified) answer was delivered to a lookup."""
        lookup, exchange = self.current if self.current is not None else (None, None)
        self._emit(
            "poisoned_result",
            lookup,
            exchange,
            {"destination": destination, "key": key},
        )

    def trust_update(self, *, peer: str, score: float, cause: str) -> None:
        """The trust ledger re-scored a peer (see repro.sec.trust)."""
        lookup, exchange = self.current if self.current is not None else (None, None)
        self._emit(
            "trust_update",
            lookup,
            exchange,
            {"peer": peer, "score": round(score, 6), "cause": cause},
        )

    # -- export -------------------------------------------------------------

    def jsonl_lines(self) -> Iterator[str]:
        """Canonical one-object-per-line serialization of every event."""
        for event in self.events:
            yield json.dumps(event, separators=(",", ":"))

    def write_jsonl(self, path: str) -> int:
        """Export the trace; returns the number of events written."""
        with open(path, "w", encoding="utf-8") as handle:
            for line in self.jsonl_lines():
                handle.write(line)
                handle.write("\n")
        return len(self.events)
