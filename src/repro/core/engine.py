"""User-side lookup engine: iterative search down the query hierarchy.

Implements the lookup process of Section IV-B, the
generalization/specialization fallback for non-indexed queries, and the
shortcut-creation side of the adaptive cache (Section IV-C):

1. The user sends a query ``q`` to the node responsible for ``h(q)``.
2. The node returns the more specific queries mapped under ``q`` plus any
   cached shortcuts.  If a shortcut points at the file the user is after,
   the user jumps straight to it (a cache hit).
3. Otherwise the user selects the returned query that matches the data it
   is looking for and iterates, following an index path down the partial
   order until reaching the MSD, which the storage layer resolves to the
   file.
4. If ``q`` resolves to nothing although the file exists (a *recoverable
   error*, Table I), the engine generalizes ``q`` to an indexed query
   covering it and restarts from there, at the price of the wasted
   interaction(s).
5. After a successful lookup, shortcuts are created according to the
   cache policy: on every traversed index node (multi-cache) or on the
   first contacted node only (single-cache and LRU).
6. Deliveries can fail (the transport is allowed to drop messages and
   nodes may crash -- see :mod:`repro.net.faults`): each exchange is
   retried with deterministic backoff under a per-lookup interaction
   budget, and the trace records retries, failed sends, and whether the
   search gave up, so availability under churn is a measurement.

The engine models the *automated* search mode of the paper -- the target
record plays the role of the user's selection criterion at each step --
which is exactly the behaviour simulated in Section V.

One search is **one generator stack**: the engine's generator does each
exchange as a ``yield from`` into the service's operation generators and
yields its retry backoffs.  :meth:`LookupEngine.search` runs the stack
under the service's blocking driver, :meth:`LookupEngine.start_async`
under its continuation driver, where N users' searches interleave by
virtual time and a backoff is a timer as well as budget burn.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.fields import Record
from repro.core.query import FieldQuery, RecordKeys
from repro.core.service import IndexService, QueryAnswer
from repro.net.message import MessageKind
from repro.net.transport import DeliveryError
from repro.perf import counters

if TYPE_CHECKING:
    from repro.obs.tracer import Tracer
    from repro.sim.kernel import EventKernel


class LookupError_(RuntimeError):
    """Raised when a search cannot make progress (data truly absent)."""


@dataclass
class SearchTrace:
    """Everything one search did, for the metric collectors.

    ``interactions`` counts completed message exchanges only; failed
    sends (message lost, node crashed with no replica left) are counted
    separately in ``failed_sends``, and ``retries`` counts the
    re-transmissions the engine issued to recover from them.
    ``gave_up`` marks a search abandoned because deliveries kept failing
    (retry/budget exhaustion) -- as opposed to the data being absent --
    so availability under faults is measured, not estimated.
    """

    query: FieldQuery
    found: bool
    interactions: int = 0
    errors: int = 0
    retries: int = 0
    failed_sends: int = 0
    gave_up: bool = False
    generalized: bool = False
    cache_hit: bool = False
    hit_interaction: Optional[int] = None  # 1-based index of the jump
    visited: list[tuple[int, str]] = field(default_factory=list)
    #: Endpoint names of every replica that answered this lookup -- its
    #: Figure 15 footprint.  Unlike ``visited`` it includes a replica
    #: whose empty answer the trust ledger set aside.
    touched: set[str] = field(default_factory=set)
    result_msd: Optional[str] = None
    #: Trace-span id of this lookup when the engine is traced (else None).
    span_id: Optional[int] = None

    @property
    def first_contact_hit(self) -> bool:
        return self.cache_hit and self.hit_interaction == 1


def _raise(error: DeliveryError) -> None:
    """No DeliveryError leaves a lookup's stack; one that does is a bug."""
    raise error


class LookupEngine:
    """Drives searches for one user against an :class:`IndexService`."""

    #: Budget units charged before the k-th retry of one exchange: the
    #: deterministic stand-in for exponential backoff in a simulation
    #: with no wall clock (waiting longer = burning more of the lookup's
    #: interaction budget).
    RETRY_BACKOFF = (1, 2, 4)

    #: The per-lookup budget, in interaction units: every exchange --
    #: successful or failed -- and every backoff unit drains it, under
    #: either driver (in async mode backoff also takes virtual time).
    MAX_INTERACTIONS = 64

    #: Retries of one exchange before the lookup gives up on it.
    MAX_RETRIES = 3

    #: Virtual milliseconds one backoff budget unit costs in async mode,
    #: so the deterministic budget backoff doubles as a real timer.
    BACKOFF_UNIT_MS = 10.0

    def __init__(
        self,
        service: IndexService,
        user: str = "user:0",
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.service = service
        self.user = user
        self.tracer = tracer
        # Generalization candidates depend only on the scheme and schema,
        # so the priority order is computed once here instead of on every
        # _generalize call: larger keysets first (retain as much
        # information as possible), ties broken by schema field order,
        # which encodes the expected selectivity (author before title
        # before conf before year).
        field_order = {
            name: position
            for position, name in enumerate(service.schema.field_names)
        }
        self._generalization_order = sorted(
            service.scheme.index_classes,
            key=lambda keyset: (
                -len(keyset),
                sorted(field_order[name] for name in keyset),
            ),
        )
        # Idempotent under re-construction: building several engines for
        # one user name (or rebuilding after the endpoint unregistered)
        # must not trip the transport's duplicate-registration guard.
        if not service.transport.is_registered(user):
            service.transport.register(user, lambda message: None)

    # -- public API -------------------------------------------------------------

    def search(self, query: FieldQuery, target: Record) -> SearchTrace:
        """Locate the file of ``target`` starting from ``query``.

        ``query`` must cover the target record (the user knows what it is
        looking for).  Returns the full trace; raises nothing on a failed
        search (the trace reports ``found=False``).
        """
        trace = self._begin_search(query, target)
        return self.service._drive(self._search_steps(trace, target, False))

    def start_async(
        self,
        query: FieldQuery,
        target: Record,
        kernel: "EventKernel",
        on_complete: Callable[[SearchTrace], None],
    ) -> SearchTrace:
        """Begin one lookup on the event kernel; returns its live trace.

        The search advances as its message exchanges complete on the
        virtual clock -- other lookups' events interleave freely in
        between -- and ``on_complete(trace)`` fires at the search's
        virtual completion time.  Retry backoff waits
        ``units * BACKOFF_UNIT_MS`` on the clock (besides burning the
        usual interaction budget).
        """
        trace = self._begin_search(query, target)
        steps = self._search_steps(trace, target, True)
        self.service._drive_async(steps, on_complete, _raise, kernel)
        return trace

    def _begin_search(self, query: FieldQuery, target: Record) -> SearchTrace:
        """Validate the request and open the trace (shared by drivers)."""
        if not query.covers_record(target):
            raise LookupError_(
                f"{query!r} does not cover the target record {target!r}"
            )
        counters.engine_searches += 1
        trace = SearchTrace(query=query, found=False)
        if self.tracer is not None:
            trace.span_id = self.tracer.begin_lookup(query.key(), self.user)
        return trace

    def _search_steps(self, trace: SearchTrace, target: Record, routed: bool):
        """One search as a generator stack; returns the closed ``trace``.

        All trace bookkeeping happens in here, identically for both
        drivers; ``routed`` is the driver's (continuation requests carry
        their overlay path length).
        """
        keys = RecordKeys(target)
        msd, target_msd_key = keys.msd(), keys.msd_key

        current = trace.query
        if not current.is_exact():
            # A predicate query over a trie-indexed field starts its walk
            # at the deepest materialized trie node covering it -- the
            # same scheme knowledge ordinary lookups use for h(q).
            rewritten = self.service.scheme.trie_entry_for(current)
            if rewritten is not None:
                counters.trie_walks += 1
                current = rewritten
        attempted_generalizations: set[frozenset[str]] = set()
        # The node whose answer pointed us at the descriptor we are about
        # to fetch: if the fetch then comes back empty, that answer was
        # contradicted, which the trust ledger (when attached) holds
        # against the referrer.
        referrer: Optional[int] = None
        budget = self.MAX_INTERACTIONS
        while budget > 0:
            if current.is_msd():
                fetched, budget, exchange = yield from self._exchange_steps(
                    MessageKind.FILE_REQUEST, current.key(), trace, budget, routed
                )
                if fetched is None:
                    break
                node, found = fetched
                trace.interactions += 1
                trace.visited.append((node, current.key()))
                trace.found = found
                trace.result_msd = current.key() if found else None
                if not found and referrer is not None:
                    self._record_contradiction(referrer)
                if self.tracer is not None:
                    self.tracer.fetch_step(
                        trace.span_id,
                        exchange,
                        node=node,
                        query=current.key(),
                        found=found,
                    )
                break

            answer, budget, exchange = yield from self._exchange_steps(
                MessageKind.QUERY_REQUEST, current.key(), trace, budget, routed
            )
            if answer is None:
                break
            assert isinstance(answer, QueryAnswer)
            trace.interactions += 1
            trace.visited.append((answer.node, current.key()))
            if self.tracer is not None:
                self.tracer.index_step(
                    trace.span_id,
                    exchange,
                    node=answer.node,
                    query=current.key(),
                    cache_hit=target_msd_key in answer.shortcuts,
                    entries=len(answer.entries),
                    shortcuts=len(answer.shortcuts),
                    file_found=target_msd_key in answer.entries,
                )

            if target_msd_key in answer.shortcuts:
                trace.cache_hit = True
                if trace.hit_interaction is None:
                    trace.hit_interaction = trace.interactions
                current = msd
                referrer = answer.node
                continue

            chosen = FieldQuery.select_covering(answer.entries, target, msd, keys)
            if chosen is not None:
                current = chosen
                referrer = answer.node
                continue

            # No usable entry: generalize.  It counts as a *recoverable
            # error* (Table I) only when the node held nothing at all for
            # the query -- once a first lookup has seeded a cache entry
            # under this key, "subsequent queries ... do not experience an
            # error" (Section V-h) even if they must still generalize
            # because the shortcut points at a different file.
            if answer.empty:
                trace.errors += 1
            trace.generalized = True
            if not current.is_exact() and self.service.scheme.accepts(current):
                # Declared-predicate fallback (Section IV-C's substring
                # recovery, generalized): replace every non-exact
                # constraint with the target's concrete value and resume
                # down the ordinary chains.  Only schemes that declare
                # the predicate kinds opt in; elsewhere a failed
                # predicate lookup stays a plain not-found.
                counters.engine_specializations += 1
                current = current.specialize(target)
                continue
            fallback = self._generalize(current, attempted_generalizations)
            if fallback is None:
                break
            current = fallback

        if trace.found:
            yield from self._shortcut_steps(trace, target_msd_key)
        if self.tracer is not None and trace.span_id is not None:
            self.tracer.end_lookup(
                trace.span_id,
                found=trace.found,
                gave_up=trace.gave_up,
                cache_hit=trace.cache_hit,
                generalized=trace.generalized,
                interactions=trace.interactions,
                retries=trace.retries,
                failed_sends=trace.failed_sends,
                errors=trace.errors,
            )
        return trace

    def _record_contradiction(self, referrer: int) -> None:
        """Penalize the node whose answer a later fetch contradicted."""
        service = self.service
        if service.trust is not None:
            peer = service.endpoint_name(referrer)
            score = service.trust.record_contradiction(peer)
            service._trust_updated(peer, score, "contradiction")

    def explore(self, query: FieldQuery) -> list[str]:
        """One interactive step: the raw result set for a query.

        This is the *interactive* mode of Section IV-B -- the user
        inspects the returned list and refines by hand.  Returns entry
        keys (index targets first, then cached shortcuts).
        """
        answer = self.service.query(query, self.user)
        return answer.entries + answer.shortcuts

    # -- internals -----------------------------------------------------------------

    def _exchange_steps(
        self, kind: MessageKind, key: str, trace: SearchTrace, budget: int, routed: bool
    ):
        """Run one service operation on ``key`` until it succeeds, under
        the budget.

        A :class:`DeliveryError` out of the replica loop (message lost,
        or every replica of the key down) is retried up to
        ``MAX_RETRIES`` times, each retry first burning its backoff from
        the budget and yielding it, in virtual ms, for the driver to let
        elapse.  Returns ``(result, budget_left, exchange_id)``:
        ``result`` is ``None`` when the exchange was abandoned (the trace
        is marked ``gave_up``); ``exchange_id`` is the exchange's trace
        child span (``None`` untraced), covering every retry of it.
        """
        attempt = 0
        tracer = self.tracer
        exchange = None
        if tracer is not None and trace.span_id is not None:
            exchange = tracer.open_exchange(trace.span_id)
            # A continuation driver re-activates this span around every
            # resume until the stack yields under another one.
            tracer.set_context(trace.span_id, exchange)
        while budget > 0:
            budget -= 1  # the exchange itself consumes one budget unit
            try:
                result = yield from self.service._replica_steps(
                    kind, key, self.user, routed, trace.touched
                )
                return result, budget, exchange
            except DeliveryError as error:
                trace.failed_sends += 1
                counters.engine_failed_sends += 1
                if exchange is not None:
                    tracer.delivery_error(
                        trace.span_id,
                        exchange,
                        reason=error.reason,
                        destination=error.destination,
                    )
                if attempt >= self.MAX_RETRIES or budget <= 0:
                    break
                backoff = self.RETRY_BACKOFF[
                    min(attempt, len(self.RETRY_BACKOFF) - 1)
                ]
                budget -= backoff
                attempt += 1
                trace.retries += 1
                counters.engine_retries += 1
                if exchange is not None:
                    tracer.retry(
                        trace.span_id,
                        exchange,
                        attempt=attempt,
                        backoff_units=backoff,
                    )
                yield backoff * self.BACKOFF_UNIT_MS
        trace.gave_up = True
        counters.engine_gave_up += 1
        return None, budget, exchange

    def _generalize(
        self, query: FieldQuery, attempted: set[frozenset[str]]
    ) -> Optional[FieldQuery]:
        """Find an indexed query covering ``query`` (Section IV-B).

        Candidates are proper subsets of the query's fields that form an
        index class, tried in the precomputed priority order (see
        ``__init__``); the first untried one wins.
        """
        fields = query.fields
        for keyset in self._generalization_order:
            if keyset < fields and keyset not in attempted:
                attempted.add(keyset)
                counters.engine_generalizations += 1
                return query.restrict(keyset)
        return None

    def _shortcut_steps(self, trace: SearchTrace, target_msd_key: str):
        """Yield the cache-entry creations of a successful lookup path."""
        policy = self.service.cache_policy
        if not policy.caches_enabled:
            return
        # Index nodes traversed with the query asked there; the final
        # file-fetch node belongs to the storage level, not the indexes.
        index_steps = [
            (node, key) for node, key in trace.visited if key != target_msd_key
        ]
        steps = index_steps if policy.all_path_nodes else index_steps[:1]
        for node, query_key in steps:
            if self.tracer is not None and trace.span_id is not None:
                # Shortcut legs are lookup-level (no exchange child span):
                # re-point attribution at the bare lookup before sending.
                self.tracer.set_context(trace.span_id, None)
                self.tracer.cache_insert(
                    node=node, query=query_key, msd=target_msd_key
                )
            yield from self.service._shortcut_steps(
                node, query_key, target_msd_key, self.user
            )
