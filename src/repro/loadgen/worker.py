"""One load-generator worker: an open-loop client process.

A worker owns one :class:`~repro.rpc.cluster.ClusterClient` (its own
connections, its own routing mirror) and replays the deterministic
operation script of :mod:`repro.loadgen.schedule` against the cluster
*open-loop*: every operation is dispatched at its scheduled arrival
instant whether or not earlier operations finished -- exactly the
traffic a population of independent users offers, which is what makes
the measured latency inflate (queueing) instead of the offered load
silently deflating when the server saturates, as a closed loop would.

Concurrency model: the worker's asyncio loop runs in a background
thread; arrivals are ``loop.call_at`` timers; retrieves drive the
lookup engine's continuation-passing state machine
(:meth:`LookupEngine.start_async`) with the client's transport as its
timer source, and stores fan their replica placements out
through :meth:`AsyncioTransport.request_many`.  Thousands of logical
clients therefore fit in one process; multiple worker processes scale
past one interpreter.

Latency is measured from the *scheduled* arrival to completion, so
dispatch slip under overload counts -- that is the open-loop contract.
Every operation is accounted exactly once: the completion guard counts
duplicate completions (there must be none) and anything not completed
by the drain deadline is `lost`.  Per-stage latencies accumulate in a
constant-memory :class:`LogBucketQuantiles` sketch whose state rides
back to the parent for cross-worker merging.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field

from repro.analysis.stats import LogBucketQuantiles
from repro.core.query import FieldQuery
from repro.dht import DEFAULT_BITS
from repro.loadgen.schedule import (
    STORE,
    Op,
    schedule_digest,
    stage_schedule,
)
from repro.net.transport import DeliveryError
from repro.rpc.cluster import ClusterClient
from repro.rpc.transport import AsyncioTransport
from repro.workload.corpus import CorpusConfig, SyntheticCorpus


@dataclass(frozen=True)
class StagePlan:
    """One ramp stage as a worker sees it (per-worker rate)."""

    index: int
    rate_hz: float
    duration_s: float
    offset_s: float


@dataclass(frozen=True)
class WorkerConfig:
    """Everything one worker process needs (picklable for spawn)."""

    worker: int
    seed: int
    bootstrap: tuple[str, int]
    stages: tuple[StagePlan, ...]
    substrate: str = "chord"
    scheme: str = "simple"
    cache: str = "multi"
    replication: int = 1
    bits: int = DEFAULT_BITS
    store_fraction: float = 0.25
    corpus_seed: int = 4242
    num_base_records: int = 50
    store_pool_size: int = 200
    start_at: float = 0.0
    request_timeout_ms: float = AsyncioTransport.REQUEST_TIMEOUT_MS
    gamma: float = 1.02
    drain_timeout_s: float = 15.0


@dataclass
class StageOutcome:
    """One worker's accounting for one stage (picklable)."""

    stage: int
    scheduled: int = 0
    completed: int = 0
    stores: int = 0
    retrieves: int = 0
    not_found: int = 0
    gave_up: int = 0
    delivery_errors: int = 0
    lost: int = 0
    duplicates: int = 0
    sketch_state: dict = field(default_factory=dict)
    digest: str = ""
    start_skew_s: float = 0.0


@dataclass
class WorkerResult:
    """Everything one worker measured, shipped back to the parent."""

    worker: int
    stages: list[StageOutcome]


class _StageTracker:
    """Exactly-once completion accounting for one stage's operations."""

    def __init__(self, plan: StagePlan, ops: list[Op], gamma: float) -> None:
        self.plan = plan
        self.ops = ops
        self.outcome = StageOutcome(
            stage=plan.index, scheduled=len(ops), digest=schedule_digest(ops)
        )
        self.sketch = LogBucketQuantiles(gamma=gamma)
        self._done = [False] * len(ops)
        self._finalized = False

    def complete(
        self,
        op_index: int,
        latency_ms: float,
        *,
        not_found: bool = False,
        gave_up: bool = False,
        delivery_error: bool = False,
    ) -> None:
        if self._finalized:
            return  # straggler past the drain deadline; already `lost`
        if self._done[op_index]:
            self.outcome.duplicates += 1
            return
        self._done[op_index] = True
        self.outcome.completed += 1
        if self.ops[op_index].kind == STORE:
            self.outcome.stores += 1
        else:
            self.outcome.retrieves += 1
        self.outcome.not_found += not_found
        self.outcome.gave_up += gave_up
        self.outcome.delivery_errors += delivery_error
        self.sketch.add(max(0.0, latency_ms))

    def finalize(self) -> StageOutcome:
        self._finalized = True
        self.outcome.lost = self.outcome.scheduled - self.outcome.completed
        self.outcome.sketch_state = self.sketch.to_state()
        return self.outcome


def run_worker(config: WorkerConfig) -> WorkerResult:
    """Run one worker's full multi-stage script; returns its results.

    Blocks the calling thread (the worker process's main thread) until
    every stage dispatched and either every operation completed or the
    drain deadline passed.
    """
    corpus = SyntheticCorpus(
        CorpusConfig(
            num_articles=config.num_base_records + config.store_pool_size,
            seed=config.corpus_seed,
        )
    )
    base_records = corpus.records[: config.num_base_records]
    store_pool = corpus.records[config.num_base_records:]

    loop = asyncio.new_event_loop()
    thread = threading.Thread(
        target=loop.run_forever,
        name=f"loadgen-worker-{config.worker}",
        daemon=True,
    )
    thread.start()
    client = ClusterClient(
        loop,
        tuple(config.bootstrap),
        substrate=config.substrate,
        scheme=config.scheme,
        cache=config.cache,
        replication=config.replication,
        bits=config.bits,
        user=f"loadgen:{config.worker}",
        request_timeout_ms=config.request_timeout_ms,
    )
    entry_classes = sorted(
        tuple(sorted(keyset)) for keyset in client.scheme.entry_classes()
    )

    trackers: list[_StageTracker] = []
    for plan in config.stages:
        ops = stage_schedule(
            config.seed,
            config.worker,
            plan.index,
            plan.rate_hz,
            plan.duration_s,
            store_fraction=config.store_fraction,
            num_store_records=len(store_pool),
            num_base_records=len(base_records),
            num_entry_classes=len(entry_classes),
        )
        trackers.append(_StageTracker(plan, ops, config.gamma))

    outstanding = sum(len(t.ops) for t in trackers)
    all_done = threading.Event()

    def op_finished() -> None:
        nonlocal outstanding
        outstanding -= 1
        if outstanding <= 0:
            all_done.set()

    def dispatch(tracker: _StageTracker, op_index: int, at_loop: float) -> None:
        op = tracker.ops[op_index]

        def finish(**kwargs) -> None:
            latency_ms = (loop.time() - at_loop) * 1000.0
            tracker.complete(op_index, latency_ms, **kwargs)
            op_finished()

        if op.kind == STORE:
            record = store_pool[op.record_index]
            messages = client.insert_messages(record)

            async def run_store() -> None:
                # A failed exchange comes back as a per-item DeliveryError.
                results = await client.transport.request_many(messages)
                finish(
                    delivery_error=any(
                        isinstance(item, DeliveryError) for item in results
                    )
                )

            loop.create_task(run_store())
        else:
            record = base_records[op.record_index]
            query = FieldQuery.msd_of(record).restrict(
                list(entry_classes[op.entry_class])
            )

            def on_complete(trace) -> None:
                finish(
                    not_found=not trace.found and not trace.gave_up,
                    gave_up=trace.gave_up,
                )

            client.engine.start_async(
                query, record, client.transport, on_complete
            )

    # Anchor the loop clock to the shared wall-clock start instant, so
    # every worker's schedule counts offsets from the same origin.
    now_wall = time.time()
    if config.start_at > now_wall:
        time.sleep(config.start_at - now_wall)
    start_skews = [
        max(0.0, time.time() - config.start_at - plan.offset_s)
        for plan in config.stages
    ]
    anchor_holder: list[float] = []

    def arm_timers() -> None:
        anchor = loop.time() - (time.time() - config.start_at)
        anchor_holder.append(anchor)
        for tracker in trackers:
            plan = tracker.plan
            for op_index, op in enumerate(tracker.ops):
                at_loop = anchor + plan.offset_s + op.at_s
                loop.call_at(
                    at_loop, dispatch, tracker, op_index, at_loop
                )
        if not any(tracker.ops for tracker in trackers):
            all_done.set()

    loop.call_soon_threadsafe(arm_timers)

    total = max(
        (plan.offset_s + plan.duration_s for plan in config.stages),
        default=0.0,
    )
    deadline = config.start_at + total + config.drain_timeout_s
    all_done.wait(timeout=max(0.0, deadline - time.time()))

    # Snapshot on the loop thread so no completion races the collection.
    collected: list[StageOutcome] = []
    snapshot_done = threading.Event()

    def collect() -> None:
        for skew, tracker in zip(start_skews, trackers):
            outcome = tracker.finalize()
            outcome.start_skew_s = skew
            collected.append(outcome)
        snapshot_done.set()

    loop.call_soon_threadsafe(collect)
    snapshot_done.wait(timeout=10.0)

    # close() fails every exchange the drain deadline left in flight, so
    # the stragglers' tasks end by themselves: let the loop run them out,
    # or closing it reports them as destroyed-while-pending.
    client.close()
    asyncio.run_coroutine_threadsafe(asyncio.sleep(0.2), loop).result(timeout=5.0)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=10.0)
    loop.close()
    return WorkerResult(worker=config.worker, stages=collected)
