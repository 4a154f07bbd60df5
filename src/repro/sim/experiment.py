"""The experiment driver: build the stack, feed queries, measure.

One :class:`Experiment` reproduces one cell of the paper's evaluation
grid.  The construction mirrors the paper's layering exactly:

    substrate (ideal ring / Chord / Kademlia)
      -> DHT storage (index store + publication/file store)
        -> index service (scheme + cache policy)
          -> lookup engine (one simulated user population)

The run has two modes sharing one workload and one chaos schedule:

- **sequential** (the default): queries are fed one at a time through the
  synchronous call stack, exactly as the paper's figures measure them;
- **concurrent** (``concurrency > 1``, a non-zero ``latency_model``, or
  an open-loop arrival process): lookups run as resumable state machines
  on the virtual-time event kernel, with message deliveries delayed by
  the latency model, so in-flight searches overlap and per-query
  response times (p50/p95/p99 on the virtual clock) become measurable.
"""

from __future__ import annotations

import math
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, replace
from typing import Callable, ClassVar, Iterable, Optional

from repro import perf
from repro.analysis.stats import ExactQuantiles
from repro.core.cache import CachePolicy
from repro.core.engine import LookupEngine, SearchTrace
from repro.core.fields import ARTICLE_SCHEMA
from repro.core.scheme import SCHEMES, article_predicates, build_scheme
from repro.core.service import IndexService
from repro.core.trie import TrieIndex
from repro.dht import SUBSTRATES, build_substrate, hash_key
from repro.net.adversary import ROLE_SYBIL, AdversaryPlan
from repro.net.faults import FaultPlan, FaultyTransport
from repro.net.latency import parse_latency_model
from repro.net.transport import SimulatedTransport
from repro.obs.tracer import Tracer
from repro.sec import TrustLedger
from repro.sim.kernel import EventKernel
from repro.sim.metrics import ExperimentResult
from repro.storage.durable import FsyncPolicy, NodeWalSet
from repro.storage.store import DHTStorage, replay_durable_state
from repro.workload.corpus import CorpusConfig, SyntheticCorpus
from repro.workload.popularity import PowerLawPopularity
from repro.workload.querygen import QueryGenerator, WorkloadQuery


@dataclass(frozen=True)
class ExperimentConfig:
    """One cell of the evaluation grid.

    Defaults are the paper's setup: 500 nodes, 10,000 articles, 50,000
    queries over the ideal substrate.  ``cache`` is "none", "multi",
    "single", or "lruK" (e.g. "lru30").  ``shortcut_top_n`` adds
    permanent deep-link index entries (Section IV-C) for the N most
    popular articles from every entry index class -- 0 reproduces the
    paper, >0 drives the shortcut ablation.
    """

    scheme: str = "simple"
    cache: str = "none"
    substrate: str = "ideal"
    num_nodes: int = 500
    num_articles: int = 10_000
    num_queries: int = 50_000
    num_authors: int = 4_000
    bits: int = 64
    replication: int = 1
    corpus_seed: int = 2003
    query_seed: int = 42
    shortcut_top_n: int = 0
    #: Number of concurrently active users.  1 keeps the paper's
    #: sequential feed; N > 1 runs a closed-loop population of N users
    #: on the event kernel, each issuing its next query as soon as the
    #: previous one completes, with lookups overlapping in virtual time.
    concurrency: int = 1
    #: Link-latency model for kernel mode: ``zero`` (the default, and
    #: the sequential semantics), ``constant[:MS]``, or
    #: ``uniform[:LOW:HIGH]`` (seeded per node pair).  Any non-zero
    #: model switches the run onto the virtual clock.
    latency_model: str = "zero"
    #: Open-loop arrival process: when > 0, queries arrive at Poisson
    #: times with this mean inter-arrival gap (virtual ms), round-robin
    #: across the user population, regardless of completions.  0 keeps
    #: the closed loop.
    arrival_interval_ms: float = 0.0
    #: Number of churn events across the query feed.  Each event removes
    #: one random node (losing its cache) and joins a fresh one, then
    #: repairs both stores -- the maintenance a DHash/PAST-class storage
    #: layer performs (Section III-A).  ``churn_mode`` places the events:
    #: "uniform" spreads them evenly; "poisson" draws each query position
    #: independently with rate churn_events/num_queries (a Poisson
    #: join/leave process over the feed).
    churn_events: int = 0
    churn_mode: str = "uniform"
    #: One seed drives *all* chaos randomness -- churn scheduling, crash
    #: victim selection, and message-fault draws share a single
    #: ``random.Random`` so every chaos run is bit-reproducible.
    churn_seed: int = 7
    #: Message-fault injection (see repro.net.faults): per-message drop
    #: probability, per-exchange duplicate probability, max added latency
    #: in virtual milliseconds per delivered message.  All zero = the
    #: reliable network.
    fault_drop_probability: float = 0.0
    fault_duplicate_probability: float = 0.0
    fault_latency_ms: float = 0.0
    #: Transient node crashes: events spread uniformly over the feed;
    #: each crashes one random live node (it stays in the overlay and
    #: registered, but refuses delivery) for ``crash_downtime_queries``
    #: queries, then it recovers with its stored state intact.
    crash_events: int = 0
    crash_downtime_queries: int = 200
    #: Restart chaos: events spread uniformly over the feed; each kills
    #: one random live node outright -- SIGKILL semantics, so unlike a
    #: crash its in-memory state (stored entries *and* cache) dies with
    #: the process -- for ``restart_downtime_queries`` queries, then
    #: restarts it.  With ``durability="wal"`` the node recovers by
    #: replaying its journal; with ``"none"`` it comes back empty and
    #: only replica repair can restore what it held.
    restart_events: int = 0
    restart_downtime_queries: int = 200
    #: Additional restart events that model a power loss: the victim's
    #: un-fsynced WAL tail is destroyed at kill time, so recovery also
    #: exercises torn-tail truncation.
    power_loss_events: int = 0
    #: Node-state durability: "none" (the seed's in-memory nodes) or
    #: "wal" (every node journals acknowledged entries, cache shortcuts,
    #: and removals to a per-node write-ahead log under ``data_dir`` --
    #: see :mod:`repro.storage.durable`).
    durability: str = "none"
    #: WAL sync policy for durable runs: always | interval[:N] | never.
    fsync: str = "interval"
    #: Root directory for the per-node journals (durability="wal").
    #: None uses a fresh temporary directory, removed when the run ends.
    data_dir: Optional[str] = None
    #: Structured per-lookup tracing (see :mod:`repro.obs`).  Off by
    #: default -- an untraced run constructs no tracer and pays zero
    #: overhead; a traced run records every lookup span but changes no
    #: aggregate (tracing is read-only observation).
    trace: bool = False
    #: Fraction of workload queries loosened into predicate queries
    #: (prefix / wildcard / year-range -- see
    #: :meth:`repro.workload.querygen.QueryGenerator._predicated`).
    #: 0 draws no extra randomness: exact-only runs are bit-identical
    #: to the pre-algebra simulator.
    predicate_mix: float = 0.0
    #: How predicate queries are resolved: "chains" (the paper's
    #: generalization/specialization fallback over the ordinary covering
    #: chains) or "trie" (the trie-over-DHT index of
    #: :mod:`repro.core.trie`: per-field tries materialized as index
    #: entries, predicate lookups rewritten onto trie nodes).  Ignored
    #: unless ``predicate_mix`` > 0.
    index_structure: str = "chains"
    #: Adversarial (Byzantine) population -- see
    #: :mod:`repro.net.adversary`.  Poisoners fabricate index entries
    #: and serve forged files; liars forge shortcut referrals; Sybils
    #: are adversary-controlled joiners flooded into the overlay over
    #: the feed; eclipse victims have their lookup traffic dropped with
    #: probability ``adversary_eclipse_drop``.  All zero keeps the run
    #: bit-identical to the benign simulator.
    adversary_poisoners: int = 0
    adversary_liars: int = 0
    adversary_sybil_joins: int = 0
    adversary_eclipse_victims: int = 0
    adversary_eclipse_drop: float = 1.0
    #: The repro.sec defence: content authentication (publisher-signed
    #: index entries and content-addressed descriptors -- see
    #: :mod:`repro.sec.entries`; *fabricated* responses surface as
    #: typed ``verify_failed`` delivery errors and trigger replica
    #: failover, while withheld answers are cross-checked against the
    #: next replica) plus a per-peer trust ledger that deprioritizes
    #: misbehaving replicas.  Transport frame signatures alone would
    #: not help here -- a lying endpoint signs its forgery with its own
    #: valid key.  Off is the undefended baseline the adversarial
    #: comparison measures against.
    verify_signatures: bool = False

    #: The enumerated fields and their allowed values: validated below,
    #: and offered as ``choices`` by the command line.
    CHOICES: ClassVar[dict[str, tuple[str, ...]]] = {
        "scheme": tuple(SCHEMES),
        "substrate": tuple(SUBSTRATES),
        "churn_mode": ("uniform", "poisson"),
        "durability": ("none", "wal"),
        "index_structure": ("chains", "trie"),
    }

    def __post_init__(self) -> None:
        for name, allowed in self.CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValueError(
                    f"unknown {name.replace('_', ' ')} {getattr(self, name)!r}"
                )
        CachePolicy.parse(self.cache)  # validates
        if self.num_nodes < 1 or self.num_articles < 1 or self.num_queries < 0:
            raise ValueError("sizes must be positive")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if not 0 <= self.arrival_interval_ms < math.inf:
            raise ValueError("arrival interval must be finite and non-negative")
        if self.shortcut_top_n < 0 or self.churn_events < 0:
            raise ValueError("shortcut and churn counts must be non-negative")
        parse_latency_model(self.latency_model)  # validates the spec
        if self.crash_events < 0 or self.crash_downtime_queries < 1:
            raise ValueError("crash schedule must be non-negative")
        if self.restart_events < 0 or self.power_loss_events < 0:
            raise ValueError("restart schedule must be non-negative")
        if self.restart_downtime_queries < 1:
            raise ValueError("restart downtime must be >= 1 query")
        FsyncPolicy.parse(self.fsync)  # validates
        if not 0.0 <= self.predicate_mix <= 1.0:
            raise ValueError(f"predicate_mix must be in [0, 1]: {self.predicate_mix}")
        # Delegates range checks on the probabilities / latency.
        self.fault_plan()
        # Delegates range checks on the adversary counts / drop rate.
        self.adversary_plan()

    def fault_plan(self) -> FaultPlan:
        """The message-fault plan this configuration describes."""
        return FaultPlan(
            drop_probability=self.fault_drop_probability,
            duplicate_probability=self.fault_duplicate_probability,
            max_latency_ms=self.fault_latency_ms,
            seed=self.churn_seed,
        )

    def adversary_plan(self) -> AdversaryPlan:
        """The Byzantine-population plan this configuration describes."""
        return AdversaryPlan(
            poisoners=self.adversary_poisoners,
            liars=self.adversary_liars,
            sybil_joins=self.adversary_sybil_joins,
            eclipse_victims=self.adversary_eclipse_victims,
            eclipse_drop=self.adversary_eclipse_drop,
            seed=self.churn_seed,
        )

    @property
    def has_adversary(self) -> bool:
        """Whether any Byzantine behavior is active in this cell."""
        return not self.adversary_plan().is_zero

    @property
    def has_chaos(self) -> bool:
        """Whether any failure mechanism is active in this cell."""
        return bool(
            self.churn_events
            or self.crash_events
            or self.restart_events
            or self.power_loss_events
            or not self.fault_plan().is_zero
            or self.has_adversary
        )

    @property
    def uses_kernel(self) -> bool:
        """Whether this cell runs on the virtual-time event kernel."""
        return (
            self.concurrency > 1
            or self.latency_model != "zero"
            or self.arrival_interval_ms > 0
        )

    def scaled(self, factor: float) -> "ExperimentConfig":
        """A proportionally smaller/larger copy (for quick tests)."""
        return replace(
            self,
            num_nodes=max(1, int(self.num_nodes * factor)),
            num_articles=max(1, int(self.num_articles * factor)),
            num_queries=max(0, int(self.num_queries * factor)),
            num_authors=max(1, int(self.num_authors * factor)),
        )


#: Outage kinds in the pending-recovery map.  A crashed node keeps its
#: state; a killed one lost its RAM; a power loss also tore the
#: un-fsynced tail of its write-ahead log.
_CRASH, _KILL, _POWER_LOSS = "crash", "kill", "power_loss"


class Experiment:
    """Builds the full stack for a config and runs the query feed."""

    def __init__(
        self,
        config: ExperimentConfig,
        corpus: Optional[SyntheticCorpus] = None,
    ) -> None:
        """``corpus`` may be shared across experiments with identical
        corpus parameters to avoid re-generation."""
        self.config = config
        self.corpus = corpus or SyntheticCorpus(
            CorpusConfig(
                num_articles=config.num_articles,
                num_authors=config.num_authors,
                seed=config.corpus_seed,
            )
        )
        if len(self.corpus) != config.num_articles:
            raise ValueError("shared corpus does not match the configuration")
        declarations = None
        if config.predicate_mix > 0:
            # Predicate workloads need the scheme to declare the kinds it
            # resolves.  The trie cell also declares levels (so lookups
            # rewrite onto trie nodes); the chains cell declares kinds
            # only, opting into the specialization fallback.
            declarations = article_predicates()
            if config.index_structure != "trie":
                declarations = {
                    field: replace(declared, trie_levels=())
                    for field, declared in declarations.items()
                }
        self.scheme = build_scheme(config.scheme, ARTICLE_SCHEMA, declarations)
        node_ids = sorted(
            {hash_key(f"node-{i}", config.bits) for i in range(config.num_nodes)}
        )
        if len(node_ids) != config.num_nodes:
            raise RuntimeError("node id collision; increase bits")
        self.protocol = build_substrate(config.substrate, node_ids, config.bits)
        # One seeded RNG drives churn scheduling, crash victim selection,
        # and message-fault draws: chaos runs are bit-reproducible, and a
        # zero fault plan makes the wrapper draw-free and transparent.
        self._chaos_rng = random.Random(config.churn_seed)
        self.transport = FaultyTransport(
            SimulatedTransport(),
            config.fault_plan(),
            rng=self._chaos_rng,
            adversary=config.adversary_plan(),
            verify=config.verify_signatures,
        )
        #: Per-peer trust ledger (the repro.sec defence), or None when
        #: ``config.verify_signatures`` is off -- the service then pays
        #: zero trust overhead, like an untraced run pays no tracer.
        self.trust: Optional[TrustLedger] = None
        if config.verify_signatures:
            self.trust = TrustLedger()
        #: The lookup tracer, or None when ``config.trace`` is off.
        self.tracer: Optional[Tracer] = None
        if config.trace:
            self.tracer = Tracer(
                meta={
                    "scheme": config.scheme,
                    "cache": config.cache,
                    "substrate": config.substrate,
                    "num_nodes": config.num_nodes,
                    "num_articles": config.num_articles,
                    "num_queries": config.num_queries,
                    "concurrency": config.concurrency,
                    "latency_model": config.latency_model,
                    "corpus_seed": config.corpus_seed,
                    "query_seed": config.query_seed,
                    "churn_seed": config.churn_seed,
                }
            )
            self.transport.bind_tracer(self.tracer)
        self.index_store = DHTStorage(
            self.protocol, replication=config.replication
        )
        self.file_store = DHTStorage(
            self.protocol, replication=config.replication
        )
        self.index_store.tracer = self.tracer
        self.file_store.tracer = self.tracer
        policy, capacity = CachePolicy.parse(config.cache)
        self.service = IndexService(
            ARTICLE_SCHEMA,
            self.scheme,
            self.index_store,
            self.file_store,
            self.transport,
            cache_policy=policy,
            cache_capacity=capacity,
            trust=self.trust,
        )
        if config.has_adversary:
            # Recruitment draws from the chaos RNG before any per-message
            # fault draw, so the compromised population is fixed by the
            # seed alone (and identical across verify on/off cells).
            self.transport.recruit(
                [
                    self.service.endpoint_name(node)
                    for node in self.protocol.node_ids
                ]
            )
        #: The per-node durability journal (``durability="wal"``), else
        #: None.  Attaching it journals every acknowledged store/cache
        #: mutation -- population included -- so a killed node's state
        #: can be replayed at restart.
        self.walset: Optional[NodeWalSet] = None
        self._data_dir: Optional[str] = None
        self._owns_data_dir = False
        if config.durability == "wal":
            self._data_dir = config.data_dir
            if self._data_dir is None:
                self._data_dir = tempfile.mkdtemp(prefix="repro-wal-")
                self._owns_data_dir = True
            self.walset = NodeWalSet(self._data_dir, fsync=config.fsync)
            self.index_store.attach_journal(self.walset, "index")
            self.file_store.attach_journal(self.walset, "file")
            self.service.journal = self.walset
        self.engine = LookupEngine(self.service, user="user:0", tracer=self.tracer)
        self._populated = False
        #: Serial of the last id tried per joiner label (see
        #: :meth:`_join_fresh_node`).
        self._join_serials = {"node": config.num_nodes, "sybil": 0}
        self.churn_keys_moved = 0
        #: The one chaos timeline: query position -> the node-lifecycle
        #: events due there (built by :meth:`_chaos_timeline` when the
        #: run starts).
        self._timeline: dict[int, list[tuple]] = {}
        #: The one pending-recovery map: every node currently down ->
        #: (query position at which it comes back, outage kind).
        self._down: dict[int, tuple[int, str]] = {}
        self._any_recovery = False
        #: The result being accumulated (created by :meth:`_run`); the
        #: chaos handlers write their counts onto it directly.
        self._result: ExperimentResult
        #: Optional observer called with every SearchTrace as the feed
        #: runs (determinism and zero-fault-identity tests use this).
        self.trace_sink: Optional[Callable[[SearchTrace], None]] = None
        #: Kernel scheduler statistics from the last kernel-mode run
        #: (merged into ``result.perf_counters`` with a ``kernel_``
        #: prefix; empty for sequential runs).
        self._kernel_stats: dict[str, int] = {}

    # -- population --------------------------------------------------------------

    def populate(self) -> None:
        """Insert every corpus record (files + index entries)."""
        if self._populated:
            return
        for record in self.corpus.records:
            self.service.insert_record(record)
        if (
            self.config.predicate_mix > 0
            and self.config.index_structure == "trie"
        ):
            TrieIndex(self.service).insert_all(self.corpus.records)
        if self.config.shortcut_top_n:
            entry_classes = self.scheme.entry_classes()
            top = self.corpus.records[: self.config.shortcut_top_n]
            for record in top:
                for keyset in entry_classes:
                    self.service.insert_shortcut_mapping(record, keyset)
        self._populated = True

    # -- run ----------------------------------------------------------------------

    def run(self) -> ExperimentResult:
        """Populate, feed the query workload, and collect every metric.

        Durable runs flush and close the per-node journals on the way
        out (and remove the temporary data directory when the run owns
        it); pass an explicit ``data_dir`` to inspect the files after.
        """
        try:
            return self._run()
        finally:
            self.close()

    def close(self) -> None:
        """Release durability resources: journal handles, owned tmpdir.

        Idempotent, and safe to skip for non-durable runs.  The journal
        reopens lazily if the experiment object keeps being used.
        """
        if self.walset is not None:
            self.walset.close()
        if self._owns_data_dir and self._data_dir is not None:
            shutil.rmtree(self._data_dir, ignore_errors=True)

    def _run(self) -> ExperimentResult:
        started = time.monotonic()
        perf_before = perf.snapshot()
        self.populate()
        config = self.config
        result = self._result = ExperimentResult(
            scheme=config.scheme,
            cache=config.cache,
            substrate=config.substrate,
            num_nodes=config.num_nodes,
            num_articles=config.num_articles,
            num_queries=config.num_queries,
            concurrency=config.concurrency,
            latency_model=config.latency_model,
        )
        result.index_storage_bytes = self.service.index_storage_bytes()
        result.article_bytes = self.corpus.total_article_bytes()

        generator = QueryGenerator(
            self.corpus,
            PowerLawPopularity.for_population(len(self.corpus)),
            seed=config.query_seed,
            predicate_mix=config.predicate_mix,
        )
        self._timeline = self._chaos_timeline()

        feed = generator.generate(config.num_queries)
        if config.uses_kernel:
            self._run_concurrent(feed)
        else:
            self._run_sequential(feed)
        self._process_recoveries(config.num_queries)
        self._collect()
        result.perf_counters = perf.delta(perf_before, perf.snapshot())
        for name, value in self._kernel_stats.items():
            result.perf_counters[f"kernel_{name}"] = value
        for counter in (
            "fault_drops",
            "fault_duplicates",
            "fault_crashed_sends",
            "fault_latency_ms",
            "service_failovers",
            "storage_failovers",
        ):
            setattr(result, counter, result.perf_counters.get(counter, 0))
        counts = result.perf_counters
        result.verify_failures = counts.get("sec_verify_failures", 0)
        result.contradictions = counts.get("sec_contradictions", 0)
        result.poisoned_results = counts.get("sec_poisoned_results", 0)
        result.forged_answers = counts.get(
            "sec_poisoned_answers", 0
        ) + counts.get("sec_forged_referrals", 0)
        result.eclipse_drops = counts.get("sec_eclipse_drops", 0)
        result.sybil_joins = counts.get("sec_sybil_joins", 0)
        if self.config.has_adversary:
            result.adversarial_nodes = len(self.transport.roles)
            result.eclipsed_nodes = len(self.transport.eclipsed)
        if self.trust is not None:
            result.low_trust_peers = len(self.trust.flagged())
        if result.searches:
            result.poisoned_result_rate = (
                result.poisoned_results / result.searches
            )
        if result.post_restart_searches:
            result.post_restart_success_rate = (
                result.post_restart_found / result.post_restart_searches
            )
        result.runtime_seconds = time.monotonic() - started
        return result

    def write_trace(self, path: str) -> int:
        """Export the recorded lookup trace as JSONL; returns the event
        count.  Requires the experiment to be configured with
        ``trace=True``."""
        if self.tracer is None:
            raise RuntimeError(
                "no trace recorded: configure the experiment with trace=True"
            )
        return self.tracer.write_jsonl(path)

    def _run_sequential(self, feed: Iterable[WorkloadQuery]) -> None:
        """The paper's feed: one query at a time through the call stack."""
        meter = self.transport.meter
        for position, workload_query in enumerate(feed):
            self._dispatch_chaos(position)
            trace = self.engine.search(workload_query.query, workload_query.target)
            meter.end_query()
            self._record_trace(trace)

    def _run_concurrent(self, feed: Iterable[WorkloadQuery]) -> None:
        """Kernel mode: overlapping lookups on the virtual clock.

        Closed loop by default -- each of the ``concurrency`` users
        starts its next query the moment the previous one completes --
        or open loop when ``arrival_interval_ms`` > 0, with Poisson
        arrivals round-robin across the user population.  Chaos events
        fire at the same feed positions as in sequential mode, applied
        when the query at that position is dispatched.
        """
        config = self.config
        result = self._result
        kernel = EventKernel(scheduler="wheel")
        latency = parse_latency_model(
            config.latency_model, seed=config.churn_seed
        )
        self.transport.bind_clock(kernel, latency)
        if self.tracer is not None:
            self.tracer.bind_clock(kernel)
        engines = [self.engine] + [
            LookupEngine(self.service, user=f"user:{index}", tracer=self.tracer)
            for index in range(1, config.concurrency)
        ]
        meter = self.transport.meter
        # Every sample is kept: percentiles are exact, at 8 bytes per
        # query per metric.
        response_times = ExactQuantiles()
        # The feed is a generator: closed-loop mode pulls queries one at
        # a time as users free up, so the 10^6-query web-scale workload
        # never materializes in memory.
        items = enumerate(feed)

        def finish(trace: SearchTrace, started_at: float) -> None:
            response_times.add(kernel.now - started_at)
            # The continuation driver pointed the meter at this lookup's
            # own touched nodes (Fig 15) before completing it.
            meter.end_query()
            self._record_trace(trace)

        def begin(
            engine: LookupEngine,
            position: int,
            workload_query: WorkloadQuery,
            and_then: Optional[Callable[[], None]] = None,
        ) -> None:
            self._dispatch_chaos(position)
            started_at = kernel.now

            def on_complete(trace: SearchTrace) -> None:
                finish(trace, started_at)
                if and_then is not None:
                    and_then()

            engine.start_async(
                workload_query.query, workload_query.target, kernel, on_complete
            )

        def begin_next(engine: LookupEngine) -> None:
            item = next(items, None)
            if item is None:
                return
            position, workload_query = item
            begin(
                engine,
                position,
                workload_query,
                and_then=lambda: begin_next(engine),
            )

        if config.arrival_interval_ms > 0:
            # Open loop: arrival times are drawn up front from their own
            # seeded RNG, independent of chaos and completion order (the
            # whole feed must be pre-booked, so this mode stays eager).
            arrival_rng = random.Random(config.query_seed ^ 0x5EED)
            arrival_at = 0.0
            for position, workload_query in items:
                arrival_at += arrival_rng.expovariate(
                    1.0 / config.arrival_interval_ms
                )
                kernel.post(
                    arrival_at,
                    lambda engine=engines[position % len(engines)],
                    position=position,
                    workload_query=workload_query: begin(
                        engine, position, workload_query
                    ),
                )
        else:
            for engine in engines:
                begin_next(engine)

        kernel.run()
        self._kernel_stats = {"events_run": kernel.events_run}
        self._kernel_stats.update(kernel.stats())
        if result.searches != config.num_queries:
            raise RuntimeError(
                f"kernel drained with {result.searches} of "
                f"{config.num_queries} lookups completed"
            )
        result.virtual_time_ms = kernel.now
        if response_times.count:
            result.response_time_ms_mean = response_times.mean
            result.response_time_ms_p50 = response_times.percentile(0.50)
            result.response_time_ms_p95 = response_times.percentile(0.95)
            result.response_time_ms_p99 = response_times.percentile(0.99)

    def _record_trace(self, trace: SearchTrace) -> None:
        """Fold one completed lookup into the running result."""
        if self.trace_sink is not None:
            self.trace_sink(trace)
        result = self._result
        result.searches += 1
        result.found += int(trace.found)
        if not trace.query.is_exact():
            result.predicate_queries += 1
        if self._any_recovery:
            # Every lookup completing after the first restart recovery
            # counts toward the post-restart success rate -- whether
            # recovered state actually serves.
            result.post_restart_searches += 1
            result.post_restart_found += int(trace.found)
        result.total_interactions += trace.interactions
        result.total_retries += trace.retries
        result.total_failed_sends += trace.failed_sends
        result.lookups_gave_up += int(trace.gave_up)
        if trace.errors:
            result.nonindexed_queries += 1
            result.total_error_interactions += trace.errors
        if trace.cache_hit:
            result.cache_hits += 1
        if trace.first_contact_hit:
            result.first_contact_hits += 1

    def _collect(self) -> None:
        result = self._result
        queries = max(1, result.searches)
        result.avg_interactions = result.total_interactions / queries
        result.success_rate = result.found / queries
        result.retries_per_lookup = result.total_retries / queries
        meter = self.transport.meter
        result.normal_bytes_total = meter.normal_bytes
        result.cache_bytes_total = meter.cache_bytes
        result.normal_bytes_per_query = meter.normal_bytes / queries
        result.cache_bytes_per_query = meter.cache_bytes / queries
        result.hit_ratio = result.cache_hits / queries
        if result.cache_hits:
            result.first_contact_hit_share = (
                result.first_contact_hits / result.cache_hits
            )

        cache_sizes = list(self.service.cache_sizes().values())
        if cache_sizes:
            result.avg_cached_keys_per_node = sum(cache_sizes) / len(cache_sizes)
            result.max_cached_keys = max(cache_sizes)
        empty, full, total = self.service.cache_occupancy()
        if total:
            result.caches_empty_fraction = empty / total
            result.caches_full_fraction = full / total

        index_keys = list(self.service.index_keys_per_node().values())
        if index_keys:
            result.avg_index_keys_per_node = sum(index_keys) / len(index_keys)

        counts = meter.query_counts_by_node()
        percentages = sorted(
            (100.0 * count / queries for count in counts.values()), reverse=True
        )
        result.node_query_percentages = percentages

        result.avg_dht_hops = self._average_dht_hops()

    # -- chaos: the one timeline, its events, the recovery rule -------------------

    def _chaos_timeline(self) -> dict[int, list[tuple]]:
        """The chaos schedule: query position -> the lifecycle events due.

        Built once, up front, from the config and the shared chaos RNG,
        so it is independent of how many per-message fault draws the
        feed makes.  Each event is ``(handler, *args)`` with an outage
        already resolved to the position at which the victim comes back.
        Events at one position run in the order they are appended here
        -- Sybil join, churn, crash, restart -- and the RNG is drawn in
        this order: the Poisson churn positions, then the power-loss
        shuffle (Sybil and crash placement draw nothing, so a benign
        cell's stream is unchanged by a flood and a restart-free cell's
        by the restart axis).  Uniform placement spreads events evenly
        over the feed (the seed behaviour); ``churn_mode="poisson"``
        draws each query position independently at the configured rate.
        """
        config = self.config
        timeline: dict[int, list[tuple]] = {}

        def at(position: int, *event: object) -> None:
            timeline.setdefault(position, []).append(event)

        def spread(events: int) -> list[int]:
            stride = max(1, config.num_queries // (events + 1))
            return [stride * (event + 1) for event in range(events)]

        for position in spread(config.adversary_sybil_joins):
            at(position, self._sybil_join_event)
        churn_positions = spread(config.churn_events)
        if (
            config.churn_events
            and config.churn_mode == "poisson"
            and config.num_queries
        ):
            rate = min(1.0, config.churn_events / config.num_queries)
            churn_positions = [
                position
                for position in range(config.num_queries)
                if self._chaos_rng.random() < rate
            ]
        for position in churn_positions:
            at(position, self._churn_event)
        for position in spread(config.crash_events):
            at(
                position,
                self._take_down,
                position + config.crash_downtime_queries,
                _CRASH,
            )
        # Which of the scheduled kills are power losses is drawn from
        # the shared chaos RNG.
        power_loss_flags = [False] * config.restart_events + (
            [True] * config.power_loss_events
        )
        self._chaos_rng.shuffle(power_loss_flags)
        for position, power_loss in zip(
            spread(len(power_loss_flags)), power_loss_flags
        ):
            at(
                position,
                self._restart_event,
                position + config.restart_downtime_queries,
                power_loss,
            )
        return timeline

    def _dispatch_chaos(self, position: int) -> None:
        """Apply the chaos due at one query position: the recoveries,
        then the timeline's events in their listed order."""
        self._process_recoveries(position)
        for handler, *args in self._timeline.get(position, ()):
            handler(*args)

    def _repair_stores(self) -> int:
        """Run the incremental :meth:`DHTStorage.repair` pass over both
        stores -- the maintenance a DHash/PAST-class layer performs after
        any membership or liveness change -- and meter it.  Returns the
        number of keys re-replicated."""
        keys = 0
        for store in (self.index_store, self.file_store):
            report = store.repair()
            keys += report.keys_repaired
            self._result.repair_bytes += report.bytes_copied
        self._result.repair_keys += keys
        return keys

    def _join_fresh_node(self, label: str) -> int:
        """Join one node under the next unused ``<label>-<serial>`` id."""
        while True:
            self._join_serials[label] += 1
            joiner = hash_key(
                f"{label}-{self._join_serials[label]}", self.config.bits
            )
            if joiner not in self.protocol:
                break
        self.protocol.add_node(joiner)
        self.service.register_nodes()
        return joiner

    def _take_down(self, recover_at: int, kind: str) -> Optional[int]:
        """Take one random live node down until query ``recover_at``.

        The victim stays in the overlay and registered -- lookups still
        resolve to it -- but the transport refuses delivery until it
        recovers, so retries and replica failover must carry the load.
        This alone is a *crash* event (the node comes back with its
        stored state intact); :meth:`_restart_event` builds on it.
        Returns the victim, or None when every node is already down.
        """
        candidates = [
            node for node in self.protocol.node_ids if node not in self._down
        ]
        if not candidates:
            return None
        victim = candidates[self._chaos_rng.randrange(len(candidates))]
        self.protocol.fail_node(victim)
        self.transport.fail_node(self.service.endpoint_name(victim))
        self._down[victim] = (recover_at, kind)
        return victim

    def _bring_up(self, node: int) -> None:
        """Mark a downed node live again in the overlay and the transport."""
        self.protocol.recover_node(node)
        self.transport.recover_node(self.service.endpoint_name(node))

    def _churn_event(self) -> None:
        """One membership change: a random leave, a fresh join, repair.

        The departed node's physical copies leave with it; the
        incremental :meth:`DHTStorage.repair` pass then re-replicates the
        keys it was responsible for and seeds the joiner (churn-
        triggered maintenance).
        """
        victims = self.protocol.node_ids
        victim = victims[self._chaos_rng.randrange(len(victims))]
        self.protocol.remove_node(victim)
        self.service.unregister_node(victim)
        # A churned-away node departs for good: cancel any pending
        # recovery (drop_node below also deletes its journal).
        self._down.pop(victim, None)
        self.index_store.drop_node(victim)
        self.file_store.drop_node(victim)
        self._join_fresh_node("node")
        self.churn_keys_moved += self._repair_stores()

    def _sybil_join_event(self) -> None:
        """One Sybil-flood step: an adversary-controlled node joins.

        The Sybil takes the ordinary join path -- it becomes responsible
        for key ranges and the repair pass replicates real entries onto
        it -- then the transport marks it, after which it withholds
        every answer those entries should have produced.  That is what
        makes a Sybil worse than a crash: the overlay believes the keys
        are well-replicated.
        """
        joiner = self._join_fresh_node("sybil")
        self.transport.mark(self.service.endpoint_name(joiner), ROLE_SYBIL)
        perf.counters.sec_sybil_joins += 1
        self._repair_stores()

    def _restart_event(self, recover_at: int, power_loss: bool) -> None:
        """Kill one random live node outright (SIGKILL semantics).

        Like a crash, the victim stays in the overlay and registered but
        refuses delivery -- the difference is that its in-memory state
        dies with the process.  A durable run loses nothing acknowledged
        (the journal outlives the process; under ``power_loss`` the
        un-fsynced log tail is torn too); a ``durability="none"`` run
        brings the node back empty, the baseline the matrix compares
        against.
        """
        victim = self._take_down(recover_at, _POWER_LOSS if power_loss else _KILL)
        if victim is None:
            return
        result = self._result
        perf.counters.fault_restarts += 1
        result.restarts += 1
        if power_loss:
            perf.counters.fault_power_losses += 1
            result.power_losses += 1
        if self.walset is not None:
            if power_loss:
                result.wal_torn_bytes += self.walset.power_loss(victim)
            else:
                self.walset.kill(victim)

    def _recover_restarted(self, node: int, power_loss: bool) -> None:
        """Restart a killed node: wipe RAM, replay the journal, repair.

        The store's in-memory copies are forgotten *without* journaling
        (the WAL is the state that survived the process), the cache
        starts cold, and -- when durable -- the node replays its log
        before delivery resumes.  The closing repair pass then
        restores whatever was acknowledged on other replicas while the
        node was down, exactly the rejoin path a real daemon runs.
        """
        self.index_store.forget_node(node)
        self.file_store.forget_node(node)
        cache = self.service.caches.get(node)
        if cache is not None:
            cache.clear()
        entries = cache_entries = wal_records = torn_bytes = 0
        replay_ms = 0.0
        if self.walset is not None:
            started = time.perf_counter()
            durable = self.walset.recover(node)
            entries, cache_entries = replay_durable_state(
                durable, node, self.index_store, self.file_store, cache
            )
            replay_ms = (time.perf_counter() - started) * 1000.0
            wal_records = durable.report.wal_records
            torn_bytes = durable.report.truncated_bytes
            result = self._result
            result.recovered_entries += entries
            result.recovered_cache_entries += cache_entries
            result.wal_records_replayed += wal_records
            result.recovery_replay_ms += replay_ms
        if self.tracer is not None:
            self.tracer.node_recovery(
                node=node,
                power_loss=power_loss,
                entries=entries,
                cache_entries=cache_entries,
                wal_records=wal_records,
                torn_bytes=torn_bytes,
                replay_ms=replay_ms,
            )
        self._bring_up(node)
        self._repair_stores()
        self._any_recovery = True

    def _process_recoveries(self, position: int) -> None:
        """Bring back every node whose downtime has elapsed.

        The recovery rule: crashed nodes first (their stored state
        survived, there is nothing to replay), then restarted ones, each
        group in the order its nodes went down -- so a restarted node's
        closing repair pass sees every replica that is due back.
        """
        if not self._down:
            return
        due = [
            (node, kind)
            for node, (recover_at, kind) in self._down.items()
            if recover_at <= position
        ]
        due.sort(key=lambda item: item[1] != _CRASH)
        for node, kind in due:
            del self._down[node]
            if kind == _CRASH:
                self._bring_up(node)
            else:
                self._recover_restarted(node, kind == _POWER_LOSS)

    def _average_dht_hops(self) -> float:
        """Mean substrate hops to resolve an index key, sampled post-hoc.

        The indexing layer's interaction counts are substrate-independent;
        this samples the routing cost underneath them for the ablation.
        """
        sample_keys = [
            hash_key(f"probe-{i}", self.config.bits) for i in range(200)
        ]
        hops = [self.protocol.lookup(key).hops for key in sample_keys]
        return sum(hops) / len(hops)
