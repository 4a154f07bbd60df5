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

Since the virtual-time refactor, one search is a **resumable state
machine**: :meth:`LookupEngine.search_steps` is a generator that yields
one :class:`SearchStep` per message exchange and receives the exchange's
result (or has the :class:`DeliveryError` thrown into it).  Two drivers
consume it:

- :meth:`LookupEngine.search` executes every step inline against the
  synchronous service API -- operation for operation the pre-refactor
  call stack, so sequential-mode results are bit-identical;
- :meth:`LookupEngine.start_async` executes steps through the service's
  continuation-passing API over an event kernel, so N users' searches
  interleave by virtual time and retry backoff becomes a scheduled
  timer instead of pure budget burn.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Generator, Optional, Union

from repro.core.fields import Record
from repro.core.query import FieldQuery
from repro.core.service import IndexService, QueryAnswer
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
    result_msd: Optional[str] = None
    #: Trace-span id of this lookup when the engine is traced (else None).
    span_id: Optional[int] = None

    @property
    def first_contact_hit(self) -> bool:
        return self.cache_hit and self.hit_interaction == 1


# -- search steps -----------------------------------------------------------
#
# The vocabulary of the search state machine: search_steps() yields one of
# these per externally visible action and is resumed with the action's
# result.  QueryStep/FetchStep expect a result (or a DeliveryError thrown
# in); ShortcutStep is fire-and-forget; BackoffStep asks the driver to let
# the retry backoff elapse (a no-op for the synchronous driver, whose
# backoff is pure budget burn; a timer for the event-kernel driver).


@dataclass(frozen=True)
class QueryStep:
    """Resolve a query at the node responsible for it."""

    query: FieldQuery


@dataclass(frozen=True)
class FetchStep:
    """Fetch the file stored under a most specific descriptor."""

    msd: FieldQuery


@dataclass(frozen=True)
class ShortcutStep:
    """Create one cache shortcut on a traversed node (best-effort)."""

    node: int
    query_key: str
    msd_key: str


@dataclass(frozen=True)
class BackoffStep:
    """Wait out a retry backoff of ``units`` budget units."""

    units: int


SearchStep = Union[QueryStep, FetchStep, ShortcutStep, BackoffStep]
#: The generator type of one resumable search.
SearchSteps = Generator[SearchStep, object, None]


class LookupEngine:
    """Drives searches for one user against an :class:`IndexService`."""

    #: Budget units charged before the k-th retry of one exchange: the
    #: deterministic stand-in for exponential backoff in a simulation
    #: with no wall clock (waiting longer = burning more of the lookup's
    #: interaction budget).
    RETRY_BACKOFF = (1, 2, 4)

    #: Virtual milliseconds one backoff budget unit costs in async mode,
    #: so the deterministic budget backoff doubles as a real timer.
    BACKOFF_UNIT_MS = 10.0

    def __init__(
        self,
        service: IndexService,
        user: str = "user:0",
        max_interactions: int = 64,
        max_retries: int = 3,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.service = service
        self.user = user
        self.tracer = tracer
        self.max_interactions = max_interactions
        self.max_retries = max_retries
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

        This synchronous driver executes the search state machine inline,
        one service call per step, in exactly the order the pre-kernel
        call stack used -- sequential-mode results are bit-identical.
        """
        trace = self._begin_search(query, target)
        steps = self.search_steps(trace, target)
        try:
            step = next(steps)
            while True:
                try:
                    result = self._perform_step(step)
                except DeliveryError as error:
                    step = steps.throw(error)
                else:
                    step = steps.send(result)
        except StopIteration:
            pass
        self._end_lookup(trace)
        return trace

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
        steps = self.search_steps(trace, target)
        self._advance((steps, trace, set(), kernel, on_complete), steps.send, None)
        return trace

    def _advance(self, lookup: tuple, resume: Callable, value: object) -> None:
        """One resume of a kernel-driven lookup, and the step it asks for.

        A method handed its state plus a fresh lambda per continuation,
        not closures naming each other: those would be one reference
        cycle per concurrent lookup, kept alive until the garbage
        collector runs.
        """
        steps, trace, touched, kernel, on_complete = lookup
        # Overlapping lookups share one meter: whatever runs on this
        # lookup's behalf credits its own Figure 15 node set, which
        # the caller flushes with ``meter.end_query()`` on completion.
        self.service.transport.meter.current_query_nodes = touched
        try:
            step = resume(value)
        except StopIteration:
            self._end_lookup(trace)
            on_complete(trace)
            return
        on_done = lambda result: self._advance(lookup, steps.send, result)  # noqa: E731
        on_error = lambda error: self._advance(lookup, steps.throw, error)  # noqa: E731
        if isinstance(step, QueryStep):
            self.service.query_async(step.query, self.user, on_done, on_error)
        elif isinstance(step, FetchStep):
            self.service.fetch_file_async(step.msd, self.user, on_done, on_error)
        elif isinstance(step, ShortcutStep):
            # Best-effort, no response expected: the search moves on
            # without waiting for the insert to land.
            self.service.insert_shortcut_async(
                step.node, step.query_key, step.msd_key, self.user
            )
            on_done(None)
        else:  # BackoffStep
            wait_ms = step.units * self.BACKOFF_UNIT_MS
            if self.tracer is not None and self.tracer.current is not None:
                self.tracer.backoff(*self.tracer.current, wait_ms=wait_ms)
            kernel.post(wait_ms, lambda: self._advance(lookup, steps.send, None))

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

    def _end_lookup(self, trace: SearchTrace) -> None:
        """Close the lookup's trace span with its outcome (if traced)."""
        if self.tracer is None or trace.span_id is None:
            return
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

    def _perform_step(self, step: SearchStep) -> object:
        """Execute one step against the synchronous service API."""
        if isinstance(step, QueryStep):
            return self.service.query(step.query, self.user)
        if isinstance(step, FetchStep):
            return self.service.fetch_file(step.msd, self.user)
        if isinstance(step, ShortcutStep):
            # Best-effort: a failed insert is swallowed by the service.
            self.service.insert_shortcut(
                step.node, step.query_key, step.msd_key, self.user
            )
            return None
        # BackoffStep: sequential mode has no clock; the budget units the
        # generator already burned *are* the backoff.
        if self.tracer is not None and self.tracer.current is not None:
            self.tracer.backoff(*self.tracer.current, wait_ms=0.0)
        return None

    def search_steps(self, trace: SearchTrace, target: Record) -> SearchSteps:
        """The search state machine: one yielded step per external action.

        The driver resumes each ``yield`` with the step's result, or
        throws the :class:`DeliveryError` a failed exchange produced.
        All trace bookkeeping happens in here, identically for every
        driver.
        """
        target_msd = FieldQuery.msd_of(target)
        target_msd_key = target_msd.key()

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
        # The per-lookup timeout budget, in interaction units: every
        # exchange -- successful or failed -- and every backoff period
        # drains it.  (In async mode, backoff additionally takes virtual
        # time; the budget arithmetic is driver-independent.)
        budget = self.max_interactions
        while budget > 0:
            if current.is_msd():
                fetched, budget, exchange = yield from self._exchange_steps(
                    FetchStep(current), trace, budget
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
                QueryStep(current), trace, budget
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
                current = target_msd
                referrer = answer.node
                continue

            chosen = FieldQuery.select_covering(answer.entries, target, target_msd)
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

    def _record_contradiction(self, referrer: int) -> None:
        """Penalize the node whose answer a later fetch contradicted."""
        trust = self.service.trust
        if trust is None:
            return
        peer = self.service.endpoint_name(referrer)
        score = trust.record_contradiction(peer)
        counters.sec_trust_updates += 1
        if self.tracer is not None:
            self.tracer.trust_update(
                peer=peer, score=score, cause="contradiction"
            )

    def explore(self, query: FieldQuery) -> list[str]:
        """One interactive step: the raw result set for a query.

        This is the *interactive* mode of Section IV-B -- the user
        inspects the returned list and refines by hand.  Returns entry
        keys (index targets first, then cached shortcuts).
        """
        answer = self.service.query(query, self.user)
        self.service.transport.meter.end_query()
        return answer.entries + answer.shortcuts

    # -- internals -----------------------------------------------------------------

    def _exchange_steps(self, step: SearchStep, trace: SearchTrace, budget: int):
        """Yield one message exchange until it succeeds, under the budget.

        On a :class:`DeliveryError` thrown in by the driver (message
        lost, or every replica of the destination key down) the exchange
        is retried up to ``max_retries`` times; each retry first burns
        its deterministic backoff from the budget (and yields a
        :class:`BackoffStep` so time-aware drivers let it elapse).
        Returns ``(result, budget_left, exchange_id)`` -- ``result`` is
        ``None`` when the exchange was abandoned, in which case the trace
        is marked ``gave_up``; ``exchange_id`` is the trace child-span id
        of the exchange (``None`` when untraced), covering the original
        transmission and every retry of it.
        """
        attempt = 0
        tracer = self.tracer
        exchange = None
        if tracer is not None and trace.span_id is not None:
            exchange = tracer.open_exchange(trace.span_id)
        while budget > 0:
            budget -= 1  # the exchange itself consumes one budget unit
            if exchange is not None:
                tracer.set_context(trace.span_id, exchange)
            try:
                result = yield step
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
                if attempt >= self.max_retries or budget <= 0:
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
                    # The DeliveryError arrived via a kernel continuation,
                    # so the current-span pointer is stale: re-point it at
                    # this exchange before handing the driver the backoff.
                    tracer.set_context(trace.span_id, exchange)
                yield BackoffStep(backoff)
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
        if not index_steps:
            return
        if policy.all_path_nodes:
            steps = index_steps
        else:
            steps = index_steps[:1]
        for node, query_key in steps:
            if self.tracer is not None and trace.span_id is not None:
                # Shortcut legs are lookup-level (no exchange child span):
                # re-point attribution at the bare lookup before sending.
                self.tracer.set_context(trace.span_id, None)
                self.tracer.cache_insert(
                    node=node, query=query_key, msd=target_msd_key
                )
            yield ShortcutStep(node, query_key, target_msd_key)
