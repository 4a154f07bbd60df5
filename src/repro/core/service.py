"""The distributed index service: node-side resolution over DHT storage.

The service glues the pieces of Section IV together:

- records are inserted by storing the *file* at the node responsible for
  ``h(MSD)`` (the Publication level of Figure 4) and one index mapping
  ``(q; q_i)`` per scheme edge at the node responsible for ``h(q)``;
- ``lookup(q)`` resolves the node responsible for ``h(q)`` and returns
  the mappings stored there, together with any cached shortcuts for
  ``q`` (prefixed entries in the response payload);
- shortcut creation (``insert_shortcut``) and record deletion with
  recursive index cleanup (Section IV-C) are supported.

All user-visible operations travel as messages through the simulated
transport so that byte counts (Figure 12) and per-node load (Figure 15)
are measured, not estimated.

Each operation is written once, as a generator that the lookup engine
also runs inside its own stack; one blocking driver (``_drive``) and one
continuation driver (``_drive_async``) run every such stack.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Generator, Iterable, Optional, Union

if TYPE_CHECKING:
    from repro.sec.identity import NodeIdentity
    from repro.sec.trust import TrustLedger
    from repro.sim.kernel import EventKernel

from repro.core.cache import CachePolicy, NodeCache
from repro.core.fields import Record, Schema
from repro.core.query import FieldQuery, RecordKeys
from repro.core.scheme import IndexScheme
from repro.net.message import Message, MessageKind
from repro.net.transport import DeliveryError, SimulatedTransport, _discard
from repro.perf import counters
from repro.storage.store import DHTStorage

#: Prefix marking cached-shortcut entries inside a query response payload;
#: it costs one byte on the wire, modelling the entry-type flag.
SHORTCUT_MARK = "~"
#: Value stored in the file store to represent the article content.
FILE_MARK = "file"

#: One operation stack in flight: it yields a request (resumed with the
#: response, or the DeliveryError thrown in), a one-way ``CACHE_INSERT``
#: or a retry backoff in virtual ms; it returns the operation's result.
_Steps = Generator[Union[Message, float], Optional[Message], object]


class IndexServiceError(RuntimeError):
    """Raised on inconsistent service usage (unknown records, etc.)."""


@dataclass
class QueryAnswer:
    """Structured form of one node's answer to a query."""

    node: int
    entries: list[str]
    shortcuts: list[str]
    file_found: bool

    @property
    def empty(self) -> bool:
        return not (self.entries or self.shortcuts or self.file_found)


class IndexService:
    """Insertion, resolution, deletion, and caching for one overlay."""

    def __init__(
        self,
        schema: Schema,
        scheme: IndexScheme,
        index_store: DHTStorage,
        file_store: DHTStorage,
        transport: SimulatedTransport,
        cache_policy: CachePolicy = CachePolicy.NONE,
        cache_capacity: Optional[int] = None,
        local_nodes: Optional[Iterable[int]] = None,
        trust: Optional["TrustLedger"] = None,
        entry_identity: Optional["NodeIdentity"] = None,
        trusted_publishers: Optional[Iterable[bytes]] = None,
    ) -> None:
        """``local_nodes`` restricts which substrate nodes this service
        instance *hosts* (registers endpoints and caches for).  ``None``
        -- the simulation default -- hosts every node in the overlay; a
        networked daemon passes its own node id(s) so remote node names
        resolve over the wire instead of to local handlers, and a pure
        client passes an empty set to host none at all.

        ``trust`` attaches a :class:`repro.sec.trust.TrustLedger`:
        replica failover then tries trusted replicas first, every
        exchange outcome feeds the ledger (signature failures hardest),
        and an *empty* query answer is cross-checked against the key's
        next replica before being believed -- a replica that withholds
        entries another replica still serves is recorded as contradicted
        (withholding passes every signature check, so replication is the
        only defence against it).  ``None`` -- the default -- adds no
        per-exchange work at all.

        ``entry_identity`` switches on publisher-signed index entries
        (:mod:`repro.sec.entries`): every mapping this service inserts
        is stored as an attestation -- the raw entry plus this
        identity's public key and an ed25519 signature over
        ``(index key, entry)`` -- and every query answer is verified
        against the trusted publisher set, dropping entries that are
        unattested, forged, or signed by an untrusted key.  This is the
        content-authentication layer that catches a Byzantine responder
        *fabricating* entries: transport signatures cannot (a lying
        node signs its forgery with its own valid key).
        ``trusted_publishers`` extends the accepted set beyond this
        service's own key (e.g. other publishers in a shared overlay);
        passing it without ``entry_identity`` builds a verify-only
        service that publishes nothing.
        """
        if index_store.protocol is not file_store.protocol:
            raise IndexServiceError(
                "index and file stores must share one DHT substrate"
            )
        self.local_nodes = (
            None if local_nodes is None else frozenset(local_nodes)
        )
        self.schema = schema
        self.scheme = scheme
        self.index_store = index_store
        self.file_store = file_store
        self.transport = transport
        self.cache_policy = cache_policy
        self.cache_capacity = cache_capacity if cache_policy is CachePolicy.LRU else None
        self.caches: dict[int, NodeCache] = {}
        # Optional durability hook (repro.storage.durable): shortcut
        # cache inserts are journaled so a restarted node keeps its
        # warmed cache.  None = in-memory only (the default).
        self.journal = None
        self._registered: set[str] = set()
        self.trust = trust
        self.entry_identity = entry_identity
        #: Publisher keys whose entry attestations are accepted, or None
        #: when entry authentication is off (answers pass unverified).
        self._trusted_publishers: Optional[frozenset[bytes]] = None
        if entry_identity is not None or trusted_publishers is not None:
            accepted = set(trusted_publishers or ())
            if entry_identity is not None:
                accepted.add(bytes(entry_identity.public_key))
            self._trusted_publishers = frozenset(accepted)
        # With replication > 1, queries rotate across the key's replicas
        # -- the paper's hot-spot relief: "any optimization of the
        # underlying P2P DHT substrate for hot-spot avoidance (e.g.,
        # using replication) will apply to index accesses as well".
        self._replica_rotation = 0
        self.register_nodes()

    # -- node endpoints --------------------------------------------------------

    @staticmethod
    def endpoint_name(node: int) -> str:
        """Transport endpoint name of an index node."""
        return f"node:{node:x}"

    def register_nodes(self) -> None:
        """Create caches and transport endpoints for the hosted nodes.

        Hosts every substrate node unless ``local_nodes`` narrowed the
        set (networked daemons host only their own node).
        """
        for node in self.index_store.protocol.node_ids:
            if self.local_nodes is not None and node not in self.local_nodes:
                continue
            name = self.endpoint_name(node)
            if name in self._registered:
                continue
            self.caches[node] = NodeCache(self.cache_capacity)
            self.transport.register(name, self._make_handler(node))
            self._registered.add(name)

    def unregister_node(self, node: int) -> None:
        """Drop a departed node's endpoint and cache.

        The node's stored index entries are handled by the storage layer
        (replication and/or rebalancing); its cache contents are simply
        lost, as they would be in a real departure.
        """
        name = self.endpoint_name(node)
        if name in self._registered:
            self.transport.unregister(name)
            self._registered.discard(name)
        self.caches.pop(node, None)

    def _make_handler(self, node: int):
        def handle(message: Message) -> Optional[Message]:
            if message.kind is MessageKind.QUERY_REQUEST:
                return self._handle_query(node, message)
            if message.kind is MessageKind.FILE_REQUEST:
                return self._handle_file_request(node, message)
            if message.kind is MessageKind.CACHE_INSERT:
                return self._handle_cache_insert(node, message)
            return None

        return handle

    #: Response marker indicating the queried key is a stored file's MSD.
    FILE_FOUND_MARK = "!file"

    def _handle_query(self, node: int, message: Message) -> Message:
        (query_key,) = message.payload
        # Strictly node-local state: what this peer physically stores.
        entries = list(self.index_store.values_at(node, query_key))
        # "That node may return f if q is the most specific query for f"
        # (Section IV-B): a query key that is a stored file's descriptor
        # is answered with the file marker.
        if self.file_store.values_at(node, query_key):
            entries.insert(0, self.FILE_FOUND_MARK)
        shortcuts: list[str] = []
        if self.cache_policy.caches_enabled:
            entry = self.caches[node].lookup(query_key)
            if entry is not None:
                shortcuts = list(entry)
        payload = tuple(entries) + tuple(
            SHORTCUT_MARK + shortcut for shortcut in shortcuts
        )
        return message.reply(MessageKind.QUERY_RESPONSE, payload)

    def _handle_file_request(self, node: int, message: Message) -> Message:
        (msd_key,) = message.payload
        stored = self.file_store.values_at(node, msd_key)
        if stored:
            # The response stands for the file descriptor/handle; article
            # content transfer is out of scope of the traffic figures.
            return message.reply(MessageKind.FILE_RESPONSE, (msd_key,))
        return message.reply(MessageKind.FILE_RESPONSE, ())

    def _handle_cache_insert(self, node: int, message: Message) -> Optional[Message]:
        query_key, msd_key = message.payload
        if self.caches[node].insert(query_key, msd_key) and (
            self.journal is not None
        ):
            self.journal.record_cache_insert(node, query_key, msd_key)
        return None

    # -- record lifecycle -----------------------------------------------------------

    def insert_record(self, record: Record) -> FieldQuery:
        """Store a record's file and create all its index mappings.

        Returns the record's most specific query.  A value that is not
        exact (``"Al*n"``, ``"prefix:TCP"``) raises before anything is stored.
        """
        keys = RecordKeys(record)
        self.insert_records((keys,))
        return keys.msd()

    def insert_records(self, records: Iterable[Union[Record, RecordKeys]]) -> None:
        """Publish records in order: store each of :meth:`placements` on its
        nodes.  A record with an inexact value raises before its writes."""
        stores = {"f": self.file_store, "i": self.index_store}
        for code, key, value, numeric, nodes in self.placements(records, self.scheme):
            stores[code].store_at(nodes, key, value, numeric)

    def placements(
        self, records: Iterable[Union[Record, RecordKeys]], scheme: IndexScheme
    ) -> Iterable[tuple[str, str, str, int, list[int]]]:
        """Per record, its file (store ``"f"``) and ``scheme``'s mappings
        (``"i"``) as ``(store, key, value, h(key), nodes)``: what the
        simulator stores and a cluster client sends (under the client's
        own ``scheme``, which its caller may swap).  Each distinct key is
        routed once per call, so the membership must stand still meanwhile."""
        place_file = self.file_store.placement()
        place_index = self.index_store.placement()
        for record in records:
            keys = record if isinstance(record, RecordKeys) else RecordKeys(record)
            yield "f", keys.msd_key, FILE_MARK, *place_file(keys.msd_key)
            for source_key, target_key in scheme.mappings_for(keys):
                entry = self._stored_entry(source_key, target_key)
                yield "i", source_key, entry, *place_index(source_key)

    def insert_shortcut_mapping(self, record: Record, fields) -> None:
        """Add a permanent deep-link index entry (Section IV-C)."""
        source_key, target_key = self.scheme.shortcut_mapping(record, fields)
        self.index_store.put(
            source_key, self._stored_entry(source_key, target_key)
        )

    def _stored_entry(self, source_key: str, target_key: str) -> str:
        """The stored form of one index mapping: the raw target key, or
        -- with entry authentication on -- its publisher attestation.
        Deterministic (ed25519 signatures are), so deletion recomputes
        the same string to find the value it removes."""
        if self.entry_identity is None:
            return target_key
        from repro.sec.entries import attest_entry

        return attest_entry(source_key, target_key, self.entry_identity)

    def delete_record(self, record: Record) -> None:
        """Delete a record and recursively clean dangling index entries.

        A mapping ``(q; q_i)`` is removed only when ``q_i`` no longer
        resolves to anything (no file and no remaining index entries), so
        entries shared with other records survive (e.g. the
        conference->conference/year entry of Figure 5 serves many files).
        """
        keys = RecordKeys(record)
        if keys.msd_key not in self.file_store:
            raise IndexServiceError(f"record not stored: {record!r}")
        self.file_store.remove_key(keys.msd_key)
        mappings = self.scheme.mappings_for(keys)
        # Most specific targets first, so emptiness propagates upward: a
        # stable sort by the target's count of ``][``-separated chains.
        mappings.sort(key=lambda pair: pair[1].count("]["), reverse=True)
        for source_key, target_key in mappings:
            if self._resolvable(target_key):
                continue
            stored = self._stored_entry(source_key, target_key)
            if (
                source_key in self.index_store
                and stored in self.index_store.values(source_key)
            ):
                self.index_store.remove_value(source_key, stored)

    def _resolvable(self, key: str) -> bool:
        if key in self.file_store:
            return True
        return key in self.index_store and bool(self.index_store.values(key))

    # -- user-facing operations (message-based) -----------------------------------------

    def query(self, query: FieldQuery, user: str) -> QueryAnswer:
        """Ask the node responsible for ``h(q)`` to resolve ``q``."""
        return self.query_key(query.key(), user)

    def query_key(self, key: str, user: str) -> QueryAnswer:
        """Resolve a raw canonical key (also used by prefix indexes).

        Failure-aware: when the chosen replica is crashed or departed
        (typed :class:`DeliveryError` with a persistent reason), the
        request *fails over* to the key's next replica before giving up
        -- the DHash/PAST-style redundancy the paper assumes.  Transient
        losses (dropped messages) are re-raised for the caller's retry
        logic, since the same node will answer a retransmission.
        """
        steps = self._replica_steps(MessageKind.QUERY_REQUEST, key, user, False)
        return self._drive(steps)

    def _replica_steps(
        self,
        kind: MessageKind,
        key: str,
        user: str,
        routed: bool,
        touched: Optional[set[str]] = None,
    ) -> _Steps:
        """Ask the replicas of ``key`` in turn -- the one failover loop.

        Yields each request :class:`Message` and is resumed with its
        response, or has the :class:`DeliveryError` thrown in; returns a
        :class:`QueryAnswer` for a query request, ``(node, found)`` for
        a file request.  A persistent failure moves on to the next
        replica; a transient one propagates, whatever was heard before
        it.  ``routed`` requests carry their overlay path length, which
        only a clocked transport charges for.  Every replica that
        answered -- a withheld empty answer included -- joins
        ``touched``, the lookup's Figure 15 set.
        """
        fetch = kind is MessageKind.FILE_REQUEST
        if fetch:
            counters.service_file_fetches += 1
        else:
            counters.service_queries += 1
        store = self.file_store if fetch else self.index_store
        tracer = self.transport.tracer
        trust = self.trust
        order = self._replica_order(store, key)
        route_hops = self._route_hops(store, key) if routed else 1
        #: Empty answers awaiting a second opinion (trust ledger only):
        #: an empty answer passes every signature check whether the
        #: replica honestly holds nothing or maliciously withholds, so
        #: it is only believed once another replica agrees (or none are
        #: left to ask).  A later non-empty answer contradicts them.
        withheld: list[QueryAnswer] = []
        last_error: Optional[DeliveryError] = None
        for attempt, node in enumerate(order):
            name = self.endpoint_name(node)
            if attempt:
                counters.service_failovers += 1
                if tracer is not None:
                    tracer.failover(
                        key=key, node=node, attempt=attempt,
                        level="service", use_current=True,
                    )
            try:
                response = yield Message(
                    kind=kind,
                    source=user,
                    destination=name,
                    payload=(key,),
                    route_hops=route_hops,
                )
            except DeliveryError as error:
                if trust is not None:
                    self._trust_penalty(node, error)
                if not error.retry_elsewhere:
                    raise
                last_error = error
                continue
            assert response is not None
            if trust is not None:
                trust.record_success(name)
            if touched is not None:
                touched.add(name)
            if fetch:
                return node, bool(response.payload)
            answer = self._parse_answer(node, key, response)
            if (
                trust is not None
                and answer.empty
                and attempt + 1 < len(order)
            ):
                withheld.append(answer)
                continue
            if withheld and not answer.empty:
                # The earlier replicas withheld what this one holds.
                for earlier in withheld:
                    liar = self.endpoint_name(earlier.node)
                    counters.sec_contradictions += 1
                    self._trust_updated(
                        liar, trust.record_contradiction(liar), "contradiction"
                    )
            return answer
        if withheld:
            # Every remaining replica erred; the uncorroborated empty
            # answer is still an answer.
            return withheld[0]
        assert last_error is not None
        raise last_error

    def _drive(self, steps: _Steps):
        """The blocking driver: runs one stack inline; returns its result.

        A one-way ``CACHE_INSERT``'s failure is dropped; a backoff takes
        no time -- the budget units the engine burned *are* the backoff.
        """
        send = self.transport.send
        tracer = self.transport.tracer
        resume, value = steps.send, None
        try:
            while True:
                request = resume(value)
                resume, value = steps.send, None
                if request.__class__ is float:
                    if tracer is not None and tracer.current is not None:
                        tracer.backoff(*tracer.current, wait_ms=0.0)
                    continue
                try:
                    value = send(request)
                except DeliveryError as error:
                    if request.kind is not MessageKind.CACHE_INSERT:
                        resume, value = steps.throw, error
        except StopIteration as done:
            return done.value

    def _drive_async(
        self,
        steps: _Steps,
        on_done: Callable[[object], None],
        on_error: Callable[[DeliveryError], None],
        kernel: Optional["EventKernel"] = None,
    ) -> None:
        """The continuation driver: the outcome reaches ``on_done`` /
        ``on_error``.  A one-way ``CACHE_INSERT`` is not waited for; a
        backoff is ``kernel.post``-ed.

        The span current when the stack last yielded is re-activated
        around every resume (``on_done`` / ``on_error`` run outside it):
        resumes fire after other operations moved it.
        """
        tracer = self.transport.tracer
        span = None if tracer is None else tracer.current
        self._resume((steps, on_done, on_error, kernel), span, steps.send)

    def _resume(self, operation: tuple, span, resume, value=None) -> None:
        """One resume of the continuation driver, and what it waits on.

        A method handed its state plus a fresh lambda per continuation,
        not closures naming each other: those would be one reference
        cycle per operation, kept alive until the garbage collector runs.
        """
        steps, on_done, on_error, kernel = operation
        transport = self.transport
        tracer = transport.tracer
        with nullcontext() if tracer is None else tracer.activated(span):
            try:
                request = resume(value)
                while (
                    request.__class__ is not float
                    and request.kind is MessageKind.CACHE_INSERT
                ):
                    transport.send_async(request, _discard, _discard)
                    request = steps.send(None)
            except StopIteration as done:
                finish, outcome = on_done, done.value
            except DeliveryError as error:
                finish, outcome = on_error, error
            else:
                if tracer is not None:
                    span = tracer.current
                if request.__class__ is float:
                    if span is not None:
                        tracer.backoff(*span, wait_ms=request)
                    kernel.post(
                        request, lambda: self._resume(operation, span, steps.send)
                    )
                else:
                    transport.send_async(
                        request,
                        lambda response: self._resume(
                            operation, span, steps.send, response
                        ),
                        lambda error: self._resume(
                            operation, span, steps.throw, error
                        ),
                    )
                return
        finish(outcome)

    def _parse_answer(
        self, node: int, key: str, response: Message
    ) -> QueryAnswer:
        """Decode one query response payload into a structured answer.

        With entry authentication on, each index entry must be a valid
        publisher attestation over ``(key, entry)`` by a trusted key;
        anything else is dropped (``sec_entry_verify_failures``) and the
        serving node takes a verify-failure trust penalty.  Shortcut
        entries are cache *hints* -- the engine verifies them by
        following them -- and pass unauthenticated.
        """
        entries = list(response.payload)
        shortcuts: list[str] = []
        # Most answers hold no shortcut, and then no item holds the mark.
        if SHORTCUT_MARK in "".join(entries):
            shortcuts = [
                item[len(SHORTCUT_MARK):]
                for item in entries
                if item.startswith(SHORTCUT_MARK)
            ]
            entries = [
                item for item in entries if not item.startswith(SHORTCUT_MARK)
            ]
        file_found = IndexService.FILE_FOUND_MARK in entries
        while IndexService.FILE_FOUND_MARK in entries:
            entries.remove(IndexService.FILE_FOUND_MARK)
        if self._trusted_publishers is not None:
            from repro.sec.entries import verify_entry

            verified = [
                verify_entry(key, item, self._trusted_publishers)
                for item in entries
            ]
            entries = [entry for entry in verified if entry is not None]
            if len(entries) < len(verified):
                name = self.endpoint_name(node)
                tracer = self.transport.tracer
                if tracer is not None:
                    tracer.sec_verify_fail(destination=name, role="entry")
                if self.trust is not None:
                    self._trust_updated(
                        name,
                        self.trust.record_verify_failure(name),
                        "verify_failure",
                    )
        return QueryAnswer(
            node=node, entries=entries, shortcuts=shortcuts,
            file_found=file_found,
        )

    def _trust_updated(self, name: str, score: float, cause: str) -> None:
        """Count and trace one ledger penalty just recorded."""
        counters.sec_trust_updates += 1
        tracer = self.transport.tracer
        if tracer is not None:
            tracer.trust_update(peer=name, score=score, cause=cause)

    def _replica_order(self, store: DHTStorage, key: str) -> list[int]:
        """The replicas of a key in the order this request tries them.

        With ``replication == 1`` this is just the responsible node.
        With more replicas, the starting point rotates round-robin,
        spreading the load of hot keys across their replica sets
        (Section V-g); the remaining replicas follow as failover
        candidates.
        """
        nodes = store.responsible_nodes(key)
        if len(nodes) == 1:
            return nodes
        self._replica_rotation += 1
        start = self._replica_rotation % len(nodes)
        order = nodes[start:] + nodes[:start]
        if self.trust is not None:
            order = self._trusted_first(order)
        return order

    def _trusted_first(self, order: list[int]) -> list[int]:
        """Stable partition of a replica order: trusted replicas first.

        Rotation still decides the order *within* each trust class, so
        hot-key load stays spread; distrusted replicas remain reachable
        as last-resort failover candidates rather than being banned
        (trust is a ranking signal, not a membership decision).
        """
        trust = self.trust
        assert trust is not None
        return sorted(
            order,
            key=lambda node: not trust.is_trusted(self.endpoint_name(node)),
        )

    def _trust_penalty(self, node: int, error: DeliveryError) -> None:
        """Feed a failed exchange into the trust ledger (trust attached).

        Signature failures are near-certain evidence of malice and cut
        trust hardest; drops/timeouts are weak evidence (benign loss
        looks identical) and shave it lightly.  Crashes and departures
        are the benign-failure model's territory and not penalized.
        """
        trust = self.trust
        assert trust is not None
        name = self.endpoint_name(node)
        if error.reason == DeliveryError.VERIFY_FAILED:
            score = trust.record_verify_failure(name)
            cause = "verify_failure"
        elif error.reason in (DeliveryError.DROPPED, DeliveryError.TIMEOUT):
            score = trust.record_timeout(name)
            cause = "timeout"
        else:
            return
        self._trust_updated(name, score, cause)

    def fetch_file(self, msd: FieldQuery, user: str) -> tuple[int, bool]:
        """Retrieve the file stored under an MSD; returns (node, found).

        Fails over across the MSD's replicas exactly like
        :meth:`query_key`; transient drops propagate for retry.
        """
        steps = self._replica_steps(MessageKind.FILE_REQUEST, msd.key(), user, False)
        return self._drive(steps)

    def insert_shortcut(self, node: int, query_key: str, msd_key: str, user: str) -> None:
        """Create a cache shortcut on a node (counted as cache traffic).

        Best-effort: shortcut creation is an optimization, so a delivery
        failure (node crashed, message lost) is swallowed -- the lookup
        already succeeded, and a later lookup will re-seed the cache.
        """
        self._drive(self._shortcut_steps(node, query_key, msd_key, user))

    def _shortcut_steps(
        self, node: int, query_key: str, msd_key: str, user: str
    ) -> _Steps:
        """The one-way request of a shortcut creation."""
        if self.cache_policy.caches_enabled:
            yield Message(
                kind=MessageKind.CACHE_INSERT,
                source=user,
                destination=self.endpoint_name(node),
                payload=(query_key, msd_key),
            )

    # -- user-facing operations (event-kernel, continuation-passing) --------------------

    def query_key_async(
        self,
        key: str,
        user: str,
        on_done: Callable[[QueryAnswer], None],
        on_error: Callable[[DeliveryError], None],
    ) -> None:
        """Scheduled variant of :meth:`query_key` with replica failover.

        Failover is spread over virtual time: a persistent failure
        (crashed/departed replica) becomes an error event one request
        leg later, at which point the next replica is tried; transient
        drops propagate to ``on_error`` for the caller's retry logic.
        """
        steps = self._replica_steps(MessageKind.QUERY_REQUEST, key, user, True)
        self._drive_async(steps, on_done, on_error)

    def fetch_file_async(
        self,
        msd: FieldQuery,
        user: str,
        on_done: Callable[[tuple[int, bool]], None],
        on_error: Callable[[DeliveryError], None],
    ) -> None:
        """Scheduled variant of :meth:`fetch_file`; yields (node, found)."""
        steps = self._replica_steps(MessageKind.FILE_REQUEST, msd.key(), user, True)
        self._drive_async(steps, on_done, on_error)

    def insert_shortcut_async(
        self, node: int, query_key: str, msd_key: str, user: str
    ) -> None:
        """Scheduled, fire-and-forget variant of :meth:`insert_shortcut`.

        The shortcut lands one request leg after ``now``; nobody waits
        for it, and a delivery failure is swallowed all the same (a
        later lookup re-seeds the cache).
        """
        steps = self._shortcut_steps(node, query_key, msd_key, user)
        self._drive_async(steps, _discard, _discard)

    def _route_hops(self, store: DHTStorage, key: str) -> int:
        """Overlay legs a request for ``key`` traverses (>= 1).

        ``LookupResult.hops`` counts routing steps beyond the first
        contacted node, so a request costs ``1 + hops`` legs: user to
        entry node, then along the overlay route.  Responses return
        directly (one leg) since the requester's address is known.
        """
        result = store.protocol.lookup(store.numeric_key(key))
        return 1 + result.hops

    # -- statistics ---------------------------------------------------------------------

    def cache_sizes(self) -> dict[int, int]:
        """Cached keys per node (Figure 14)."""
        return {node: len(cache) for node, cache in self.caches.items()}

    def cache_occupancy(self) -> tuple[int, int, int]:
        """(empty caches, full caches, total caches) across nodes."""
        empty = sum(1 for cache in self.caches.values() if len(cache) == 0)
        full = sum(1 for cache in self.caches.values() if cache.is_full)
        return empty, full, len(self.caches)

    def index_keys_per_node(self) -> dict[int, int]:
        """Regular (non-cache) entries per node, incl. stored files."""
        per_node: dict[int, int] = {}
        for node in self.index_store.protocol.node_ids:
            per_node[node] = self.index_store.entries_on_node(
                node
            ) + self.file_store.entries_on_node(node)
        return per_node

    def index_storage_bytes(self) -> int:
        """Bytes dedicated to index mappings (excludes file content)."""
        return self.index_store.storage_bytes()
