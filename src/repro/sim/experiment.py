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

import random
import shutil
import tempfile
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional

from repro import perf
from repro.analysis.stats import ExactQuantiles, LogBucketQuantiles
from repro.core.cache import CachePolicy
from repro.core.engine import LookupEngine, SearchTrace
from repro.core.fields import ARTICLE_SCHEMA
from repro.core.scheme import (
    IndexScheme,
    article_predicates,
    complex_scheme,
    flat_scheme,
    simple_scheme,
)
from repro.core.trie import TrieIndex
from repro.core.service import IndexService
from repro.dht.base import DHTProtocol
from repro.dht.can import CANNetwork
from repro.dht.chord import ChordNetwork
from repro.dht.idspace import hash_key
from repro.dht.kademlia import KademliaNetwork
from repro.dht.pastry import PastryNetwork
from repro.dht.ring import IdealRing
from repro.net.adversary import ROLE_SYBIL, AdversarialTransport, AdversaryPlan
from repro.net.faults import FaultPlan, FaultyTransport
from repro.net.latency import parse_latency_model
from repro.net.transport import SimulatedTransport
from repro.obs.tracer import Tracer
from repro.sec import TrustLedger
from repro.sim.kernel import EventKernel
from repro.sim.metrics import ExperimentResult
from repro.storage.durable import FsyncPolicy, NodeWalSet
from repro.storage.store import DHTStorage
from repro.workload.corpus import CorpusConfig, SyntheticCorpus
from repro.workload.popularity import PowerLawPopularity
from repro.workload.querygen import QueryGenerator, WorkloadQuery

_SCHEME_BUILDERS = {
    "simple": simple_scheme,
    "flat": flat_scheme,
    "complex": complex_scheme,
}

#: Query count at which "auto" flips from the paper-scale machinery
#: (binary-heap kernel, exact percentiles) to the web-scale machinery
#: (timing-wheel kernel, log-bucket quantile sketch).  Every paper
#: preset sits well below this, so paper-scale numbers never change.
_WEB_SCALE_QUERIES = 200_000


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
    #: and removals to a per-node WAL + snapshot under ``data_dir`` --
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
    #: Event-kernel scheduler for kernel-mode runs: "heap" (the seed
    #: binary heap), "wheel" (the calendar-queue timing wheel), or
    #: "auto" (heap below ``_WEB_SCALE_QUERIES`` queries, wheel at or
    #: above).  Both schedulers honour the same (time, seq) ordering
    #: contract, so the choice changes throughput only, never any
    #: measured number.
    scheduler: str = "auto"
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
    #: Response-time collector: "exact" (every sample kept; percentiles
    #: bit-identical to the seed accumulation list), "sketch" (constant
    #: memory, <1% relative error -- see
    #: :class:`repro.analysis.stats.LogBucketQuantiles`), or "auto"
    #: (exact below ``_WEB_SCALE_QUERIES`` queries, sketch at or above).
    metrics: str = "auto"
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

    def __post_init__(self) -> None:
        if self.scheme not in _SCHEME_BUILDERS:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.substrate not in ("ideal", "chord", "kademlia", "pastry", "can"):
            raise ValueError(f"unknown substrate {self.substrate!r}")
        CachePolicy.parse(self.cache)  # validates
        if self.num_nodes < 1 or self.num_articles < 1 or self.num_queries < 0:
            raise ValueError("sizes must be positive")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if self.arrival_interval_ms < 0:
            raise ValueError("arrival interval must be non-negative")
        parse_latency_model(self.latency_model)  # validates the spec
        if self.churn_mode not in ("uniform", "poisson"):
            raise ValueError(f"unknown churn mode {self.churn_mode!r}")
        if self.crash_events < 0 or self.crash_downtime_queries < 1:
            raise ValueError("crash schedule must be non-negative")
        if self.restart_events < 0 or self.power_loss_events < 0:
            raise ValueError("restart schedule must be non-negative")
        if self.restart_downtime_queries < 1:
            raise ValueError("restart downtime must be >= 1 query")
        if self.durability not in ("none", "wal"):
            raise ValueError(f"unknown durability {self.durability!r}")
        FsyncPolicy.parse(self.fsync)  # validates
        if self.scheduler not in ("auto", "heap", "wheel"):
            raise ValueError(f"unknown scheduler {self.scheduler!r}")
        if self.metrics not in ("auto", "exact", "sketch"):
            raise ValueError(f"unknown metrics mode {self.metrics!r}")
        if not 0.0 <= self.predicate_mix <= 1.0:
            raise ValueError(f"predicate_mix must be in [0, 1]: {self.predicate_mix}")
        if self.index_structure not in ("chains", "trie"):
            raise ValueError(f"unknown index structure {self.index_structure!r}")
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

    @property
    def resolved_scheduler(self) -> str:
        """The concrete kernel scheduler ("auto" resolved by scale)."""
        if self.scheduler != "auto":
            return self.scheduler
        return "wheel" if self.num_queries >= _WEB_SCALE_QUERIES else "heap"

    @property
    def resolved_metrics(self) -> str:
        """The concrete collector mode ("auto" resolved by scale)."""
        if self.metrics != "auto":
            return self.metrics
        return "sketch" if self.num_queries >= _WEB_SCALE_QUERIES else "exact"

    def scaled(self, factor: float) -> "ExperimentConfig":
        """A proportionally smaller/larger copy (for quick tests)."""
        return replace(
            self,
            num_nodes=max(1, int(self.num_nodes * factor)),
            num_articles=max(1, int(self.num_articles * factor)),
            num_queries=max(0, int(self.num_queries * factor)),
            num_authors=max(1, int(self.num_authors * factor)),
        )


class Experiment:
    """Builds the full stack for a config and runs the query feed."""

    def __init__(
        self,
        config: ExperimentConfig,
        corpus: Optional[SyntheticCorpus] = None,
        scheme: Optional[IndexScheme] = None,
    ) -> None:
        """``corpus`` (and ``scheme``) may be shared across experiments
        with identical corpus parameters to avoid re-generation."""
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
        if scheme is not None:
            self.scheme = scheme
        elif config.predicate_mix > 0:
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
            self.scheme = _SCHEME_BUILDERS[config.scheme](
                ARTICLE_SCHEMA, predicates=declarations
            )
        else:
            self.scheme = _SCHEME_BUILDERS[config.scheme](ARTICLE_SCHEMA)
        self.protocol = self._build_substrate()
        # One seeded RNG drives churn scheduling, crash victim selection,
        # and message-fault draws: chaos runs are bit-reproducible, and a
        # zero fault plan makes the wrapper draw-free and transparent.
        self._chaos_rng = random.Random(config.churn_seed)
        if config.has_adversary or config.verify_signatures:
            # The adversarial wrapper is only constructed when someone
            # misbehaves (or verification is measured), so every benign
            # cell keeps the exact seed transport object.
            self.transport: FaultyTransport = AdversarialTransport(
                SimulatedTransport(),
                config.fault_plan(),
                adversary=config.adversary_plan(),
                rng=self._chaos_rng,
                verify=config.verify_signatures,
            )
        else:
            self.transport = FaultyTransport(
                SimulatedTransport(), config.fault_plan(), rng=self._chaos_rng
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
        self._dht_hops_total = 0
        self._dht_lookups = 0
        self._join_counter = config.num_nodes
        self._sybil_counter = 0
        #: Sybil-flood schedule: query positions at which one adversary-
        #: controlled node joins (filled by :meth:`_chaos_schedule`).
        self._sybil_positions: set[int] = set()
        self.churn_keys_moved = 0
        self.repair_keys = 0
        self.repair_bytes = 0
        #: Nodes currently in a crash window, mapped to their scheduled
        #: recovery query position.
        self._crashed_until: dict[int, int] = {}
        #: Nodes currently in a restart window, mapped to their
        #: scheduled recovery position and the power-loss flag.
        self._restarting_until: dict[int, tuple[int, bool]] = {}
        #: Restart schedule: query position -> power-loss flag (filled
        #: by :meth:`_chaos_schedule`).
        self._restart_positions: dict[int, bool] = {}
        self._restarts = 0
        self._power_losses = 0
        self._recovered_entries = 0
        self._recovered_cache_entries = 0
        self._wal_records_replayed = 0
        self._wal_torn_bytes = 0
        self._recovery_replay_ms = 0.0
        self._post_restart_searches = 0
        self._post_restart_found = 0
        self._any_recovery = False
        #: Optional observer called with every SearchTrace as the feed
        #: runs (determinism and zero-fault-identity tests use this).
        self.trace_sink: Optional[Callable[[SearchTrace], None]] = None
        #: Kernel scheduler statistics from the last kernel-mode run
        #: (merged into ``result.perf_counters`` with a ``kernel_``
        #: prefix; empty for sequential runs).
        self._kernel_stats: dict[str, int] = {}

    def _build_substrate(self) -> DHTProtocol:
        config = self.config
        node_ids = sorted(
            {hash_key(f"node-{i}", config.bits) for i in range(config.num_nodes)}
        )
        if len(node_ids) != config.num_nodes:
            raise RuntimeError("node id collision; increase bits")
        if config.substrate == "ideal":
            return IdealRing.bulk_build(node_ids, bits=config.bits)
        if config.substrate == "chord":
            return ChordNetwork.bulk_build(node_ids, bits=config.bits)
        if config.substrate == "kademlia":
            return KademliaNetwork.bulk_build(node_ids, bits=config.bits)
        if config.substrate == "pastry":
            return PastryNetwork.bulk_build(node_ids, bits=config.bits)
        return CANNetwork.bulk_build(node_ids, bits=config.bits)

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
        result = ExperimentResult(
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
        churn_positions, crash_positions = self._chaos_schedule()

        feed = generator.generate(config.num_queries)
        if config.uses_kernel:
            self._run_concurrent(result, feed, churn_positions, crash_positions)
        else:
            self._run_sequential(result, feed, churn_positions, crash_positions)
        self._process_recoveries(config.num_queries)
        self._collect(result)
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
        result.repair_keys = self.repair_keys
        result.repair_bytes = self.repair_bytes
        counts = result.perf_counters
        result.verify_failures = counts.get("sec_verify_failures", 0)
        result.contradictions = counts.get("sec_contradictions", 0)
        result.poisoned_results = counts.get("sec_poisoned_results", 0)
        result.forged_answers = counts.get(
            "sec_poisoned_answers", 0
        ) + counts.get("sec_forged_referrals", 0)
        result.eclipse_drops = counts.get("sec_eclipse_drops", 0)
        result.sybil_joins = counts.get("sec_sybil_joins", 0)
        if isinstance(self.transport, AdversarialTransport):
            result.adversarial_nodes = len(self.transport.roles)
            result.eclipsed_nodes = len(self.transport.eclipsed)
        if self.trust is not None:
            result.low_trust_peers = len(self.trust.flagged())
        if result.searches:
            result.poisoned_result_rate = (
                result.poisoned_results / result.searches
            )
        result.restarts = self._restarts
        result.power_losses = self._power_losses
        result.recovered_entries = self._recovered_entries
        result.recovered_cache_entries = self._recovered_cache_entries
        result.wal_records_replayed = self._wal_records_replayed
        result.wal_torn_bytes = self._wal_torn_bytes
        result.recovery_replay_ms = self._recovery_replay_ms
        result.post_restart_searches = self._post_restart_searches
        result.post_restart_found = self._post_restart_found
        if self._post_restart_searches:
            result.post_restart_success_rate = (
                self._post_restart_found / self._post_restart_searches
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

    def _run_sequential(
        self,
        result: ExperimentResult,
        feed: Iterable[WorkloadQuery],
        churn_positions: set[int],
        crash_positions: set[int],
    ) -> None:
        """The paper's feed: one query at a time through the call stack."""
        meter = self.transport.meter
        for position, workload_query in enumerate(feed):
            self._dispatch_chaos(position, churn_positions, crash_positions)
            trace = self.engine.search(workload_query.query, workload_query.target)
            meter.end_query()
            self._record_trace(result, trace)

    def _run_concurrent(
        self,
        result: ExperimentResult,
        feed: Iterable[WorkloadQuery],
        churn_positions: set[int],
        crash_positions: set[int],
    ) -> None:
        """Kernel mode: overlapping lookups on the virtual clock.

        Closed loop by default -- each of the ``concurrency`` users
        starts its next query the moment the previous one completes --
        or open loop when ``arrival_interval_ms`` > 0, with Poisson
        arrivals round-robin across the user population.  Chaos events
        fire at the same feed positions as in sequential mode, applied
        when the query at that position is dispatched.
        """
        config = self.config
        kernel = EventKernel(scheduler=config.resolved_scheduler)
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
        # Exact mode keeps every sample (bit-identical to the seed's
        # accumulation list); sketch mode is constant-memory for feeds
        # where 10^6+ floats per metric would dominate the footprint.
        if config.resolved_metrics == "sketch":
            response_times = LogBucketQuantiles()
        else:
            response_times = ExactQuantiles()
        # The feed is a generator: closed-loop mode pulls queries one at
        # a time as users free up, so the 10^6-query web-scale workload
        # never materializes in memory.
        items = enumerate(feed)

        def finish(trace: SearchTrace, started_at: float) -> None:
            response_times.add(kernel.now - started_at)
            # The engine pointed the meter at this lookup's own touched
            # nodes (Fig 15) before completing it.
            meter.end_query()
            self._record_trace(result, trace)

        def begin(
            engine: LookupEngine,
            position: int,
            workload_query: WorkloadQuery,
            and_then: Optional[Callable[[], None]] = None,
        ) -> None:
            self._dispatch_chaos(position, churn_positions, crash_positions)
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
        if len(response_times):
            result.response_time_ms_mean = response_times.mean
            result.response_time_ms_p50 = response_times.percentile(0.50)
            result.response_time_ms_p95 = response_times.percentile(0.95)
            result.response_time_ms_p99 = response_times.percentile(0.99)

    def _dispatch_chaos(
        self,
        position: int,
        churn_positions: set[int],
        crash_positions: set[int],
    ) -> None:
        """Apply the chaos schedule due at one query position."""
        self._process_recoveries(position)
        if position in self._sybil_positions:
            self._sybil_join_event()
        if position in churn_positions:
            self._churn_event()
        if position in crash_positions:
            self._crash_event(position)
        if position in self._restart_positions:
            self._restart_event(position, self._restart_positions[position])

    def _record_trace(self, result: ExperimentResult, trace: SearchTrace) -> None:
        """Fold one completed lookup into the running result."""
        if self.trace_sink is not None:
            self.trace_sink(trace)
        result.searches += 1
        result.found += int(trace.found)
        if not trace.query.is_exact():
            result.predicate_queries += 1
        if self._any_recovery:
            # Every lookup completing after the first restart recovery
            # counts toward the post-restart success rate -- whether
            # recovered state actually serves.
            self._post_restart_searches += 1
            self._post_restart_found += int(trace.found)
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
        self._dht_hops_total += sum(
            1 for _ in trace.visited
        )  # interactions resolve one key each

    def _chaos_schedule(self) -> tuple[set[int], set[int]]:
        """Query positions at which churn and crash events fire.

        Computed up front from the shared chaos RNG, so the schedule is
        independent of how many per-message fault draws the feed makes.
        Uniform mode spreads events evenly (the seed behaviour); poisson
        mode draws each position independently at the configured rate.
        """
        config = self.config
        churn_positions: set[int] = set()
        if config.churn_events:
            if config.churn_mode == "poisson" and config.num_queries:
                rate = min(1.0, config.churn_events / config.num_queries)
                churn_positions = {
                    position
                    for position in range(config.num_queries)
                    if self._chaos_rng.random() < rate
                }
            else:
                stride = max(1, config.num_queries // (config.churn_events + 1))
                churn_positions = {
                    stride * (event + 1) for event in range(config.churn_events)
                }
        crash_positions: set[int] = set()
        if config.crash_events:
            stride = max(1, config.num_queries // (config.crash_events + 1))
            crash_positions = {
                stride * (event + 1) for event in range(config.crash_events)
            }
        self._restart_positions = {}
        total_restarts = config.restart_events + config.power_loss_events
        if total_restarts:
            # Which of the scheduled kills are power losses is drawn
            # from the shared chaos RNG (after the churn draws, so
            # restart-free cells see an unchanged stream).
            flags = [False] * config.restart_events + (
                [True] * config.power_loss_events
            )
            self._chaos_rng.shuffle(flags)
            stride = max(1, config.num_queries // (total_restarts + 1))
            self._restart_positions = {
                stride * (event + 1): flags[event]
                for event in range(total_restarts)
            }
        self._sybil_positions = set()
        if config.adversary_sybil_joins:
            # Spread uniformly, like crashes; placement draws no RNG, so
            # the benign chaos stream is unchanged by a Sybil flood.
            stride = max(
                1, config.num_queries // (config.adversary_sybil_joins + 1)
            )
            self._sybil_positions = {
                stride * (event + 1)
                for event in range(config.adversary_sybil_joins)
            }
        return churn_positions, crash_positions

    def _collect(self, result: ExperimentResult) -> None:
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

    def _churn_event(self) -> None:
        """One membership change: a random leave, a fresh join, repair.

        The departed node's physical copies leave with it; the
        incremental :meth:`DHTStorage.repair` pass then re-replicates the
        keys it was responsible for and seeds the joiner -- churn-
        triggered maintenance instead of the full rebalance.
        """
        victims = self.protocol.node_ids
        victim = victims[self._chaos_rng.randrange(len(victims))]
        self.protocol.remove_node(victim)
        self.service.unregister_node(victim)
        self._crashed_until.pop(victim, None)
        # A churned-away node departs for good: cancel any pending
        # restart recovery (drop_node below also deletes its journal).
        self._restarting_until.pop(victim, None)
        self.index_store.drop_node(victim)
        self.file_store.drop_node(victim)
        while True:
            self._join_counter += 1
            joiner = hash_key(f"node-{self._join_counter}", self.config.bits)
            if joiner not in self.protocol:
                break
        self.protocol.add_node(joiner)
        self.service.register_nodes()
        for store in (self.index_store, self.file_store):
            report = store.repair()
            self.churn_keys_moved += report.keys_repaired
            self.repair_keys += report.keys_repaired
            self.repair_bytes += report.bytes_copied

    def _sybil_join_event(self) -> None:
        """One Sybil-flood step: an adversary-controlled node joins.

        The Sybil takes the ordinary join path -- it becomes responsible
        for key ranges and the repair pass replicates real entries onto
        it -- then the transport marks it, after which it withholds
        every answer those entries should have produced.  That is what
        makes a Sybil worse than a crash: the overlay believes the keys
        are well-replicated.
        """
        while True:
            self._sybil_counter += 1
            joiner = hash_key(f"sybil-{self._sybil_counter}", self.config.bits)
            if joiner not in self.protocol:
                break
        self.protocol.add_node(joiner)
        self.service.register_nodes()
        assert isinstance(self.transport, AdversarialTransport)
        self.transport.mark(self.service.endpoint_name(joiner), ROLE_SYBIL)
        perf.counters.sec_sybil_joins += 1
        for store in (self.index_store, self.file_store):
            report = store.repair()
            self.repair_keys += report.keys_repaired
            self.repair_bytes += report.bytes_copied

    def _crash_event(self, position: int) -> None:
        """Crash one random live node for a fixed window of queries.

        The node stays in the overlay and registered -- lookups still
        resolve to it -- but the transport refuses delivery until it
        recovers, so retries and replica failover must carry the load.
        """
        candidates = [
            node
            for node in self.protocol.node_ids
            if node not in self._crashed_until
            and node not in self._restarting_until
        ]
        if not candidates:
            return
        victim = candidates[self._chaos_rng.randrange(len(candidates))]
        self.protocol.fail_node(victim)
        self.transport.fail_node(self.service.endpoint_name(victim))
        self._crashed_until[victim] = position + self.config.crash_downtime_queries

    def _restart_event(self, position: int, power_loss: bool) -> None:
        """Kill one random live node outright (SIGKILL semantics).

        Like a crash, the victim stays in the overlay and registered but
        refuses delivery -- the difference is that its in-memory state
        dies with the process.  A durable run loses nothing acknowledged
        (the journal outlives the process; under ``power_loss`` the
        un-fsynced log tail is torn too); a ``durability="none"`` run
        brings the node back empty, the baseline the matrix compares
        against.
        """
        candidates = [
            node
            for node in self.protocol.node_ids
            if node not in self._crashed_until
            and node not in self._restarting_until
        ]
        if not candidates:
            return
        victim = candidates[self._chaos_rng.randrange(len(candidates))]
        self.protocol.fail_node(victim)
        self.transport.fail_node(self.service.endpoint_name(victim))
        perf.counters.fault_restarts += 1
        self._restarts += 1
        if power_loss:
            perf.counters.fault_power_losses += 1
            self._power_losses += 1
        if self.walset is not None:
            if power_loss:
                self._wal_torn_bytes += self.walset.power_loss(victim)
            else:
                self.walset.kill(victim)
        self._restarting_until[victim] = (
            position + self.config.restart_downtime_queries,
            power_loss,
        )

    def _recover_restarted(self, node: int, power_loss: bool) -> None:
        """Restart a killed node: wipe RAM, replay the journal, repair.

        The store's in-memory copies are forgotten *without* journaling
        (the WAL is the state that survived the process), the cache
        starts cold, and -- when durable -- the node replays snapshot +
        log tail before delivery resumes.  The closing repair pass then
        restores whatever was acknowledged on other replicas while the
        node was down, exactly the rejoin path a real daemon runs.
        """
        self.index_store.forget_node(node)
        self.file_store.forget_node(node)
        cache = self.service.caches.get(node)
        if cache is not None:
            cache.clear()
        if self.walset is not None:
            started = time.perf_counter()
            durable = self.walset.recover(node)
            state = durable.state
            recovered = 0
            recovered_cache = 0
            durable.replaying = True
            try:
                recovered += self.index_store.replay_entries(
                    node, state.entries("index")
                )
                recovered += self.file_store.replay_entries(
                    node, state.entries("file")
                )
                if cache is not None:
                    for query_key, msd_keys in sorted(state.cache.items()):
                        for msd_key in msd_keys:
                            recovered_cache += int(
                                cache.insert(query_key, msd_key)
                            )
            finally:
                durable.replaying = False
            replay_ms = (time.perf_counter() - started) * 1000.0
            self._recovered_entries += recovered
            self._recovered_cache_entries += recovered_cache
            self._wal_records_replayed += durable.report.wal_records
            self._recovery_replay_ms += replay_ms
            if self.tracer is not None:
                self.tracer.node_recovery(
                    node=node,
                    power_loss=power_loss,
                    entries=recovered,
                    cache_entries=recovered_cache,
                    wal_records=durable.report.wal_records,
                    torn_bytes=durable.report.truncated_bytes,
                    replay_ms=replay_ms,
                )
        elif self.tracer is not None:
            self.tracer.node_recovery(
                node=node,
                power_loss=power_loss,
                entries=0,
                cache_entries=0,
                wal_records=0,
                torn_bytes=0,
                replay_ms=0.0,
            )
        if node in self.protocol:
            self.protocol.recover_node(node)
        self.transport.recover_node(self.service.endpoint_name(node))
        for store in (self.index_store, self.file_store):
            report = store.repair()
            self.repair_keys += report.keys_repaired
            self.repair_bytes += report.bytes_copied
        self._any_recovery = True

    def _process_recoveries(self, position: int) -> None:
        """Bring back crashed nodes whose downtime has elapsed; their
        stored state survived the crash, and a repair pass restores any
        replicas created elsewhere in the meantime to consistency."""
        due = [
            node
            for node, recover_at in self._crashed_until.items()
            if recover_at <= position
        ]
        for node in due:
            del self._crashed_until[node]
            if node in self.protocol:
                self.protocol.recover_node(node)
            self.transport.recover_node(self.service.endpoint_name(node))
        due_restarts = [
            node
            for node, (recover_at, _) in self._restarting_until.items()
            if recover_at <= position
        ]
        for node in due_restarts:
            _, power_loss = self._restarting_until.pop(node)
            self._recover_restarted(node, power_loss)

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
