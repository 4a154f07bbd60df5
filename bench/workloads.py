"""The five workloads: what runs, what is timed, what is checked.

``run_workload`` runs one replica (``run.py`` starts several, each in
its own interpreter).  Every workload has the same three phases.

*Set-up* (reported as ``setup_s``): build the stack, publish the corpus
and, on the wire, run closed-loop warm-up lookups.

*Timed section*: the operations the workload is named after, sized from
the section's seconds by a fixed operations-per-second constant, so the
same ``--seed`` and ``--seconds`` give the same inputs on any box and
the modelled statistics repeat exactly.  The constants are the reference
box's rates: there a timed section lasts about that many seconds.

*Checks*: outputs compared with what the inputs imply (and, at the
pinned seed and size, with ``bench/expected.json``).

Load shape: one process, at most two busy threads (this driver thread
and the ``LocalCluster`` / load-generator loop thread).
"""

from __future__ import annotations

import os
import random
import resource
import shutil
import tempfile
import threading
import time
from array import array
from dataclasses import dataclass, field, replace
from typing import Optional

from repro import perf
from repro.core.query import FieldQuery
from repro.loadgen import (
    LoadTestConfig,
    combine_digests,
    schedule_digest,
    stage_schedule,
)
from repro.loadgen import runner as loadgen_runner
from repro.rpc.cluster import ClusterClient, LocalCluster
from repro.sim.experiment import Experiment
from repro.sim.presets import get_preset
from repro.workload.corpus import CorpusConfig, SyntheticCorpus
from repro.workload.querygen import QueryGenerator, QueryStructureModel

import spans

_clock = time.perf_counter

CORPUS_SEED = 2003

#: Timed-section sizes per second of section (reference-box rates).
SIM_PAPER_QUERIES_PER_S = 1_000
SIM_CHURN_QUERIES_PER_S = 400
WIRE_LOOKUPS_PER_S = 800
WIRE_PUBLISH_CYCLES_PER_S = 48
WIRE_OPEN_RATE_HZ = 200.0

WIRE_NODES = 5
WIRE_PRELOAD = 500
WIRE_WARMUP_LOOKUPS = 200
WIRE_PUBLISH_PRELOAD = 100
WIRE_OPEN_BASE_RECORDS = 200
WIRE_OPEN_STORE_POOL = 1_000

WORKLOADS = ("sim_paper", "sim_churn", "wire_lookup", "wire_publish", "wire_open")


class Samples:
    """Timed operations of one kind, and the section they ran in."""

    def __init__(self) -> None:
        #: Wall ms of each operation, in completion order.
        self.ms = array("d")
        #: Indexes of the operations that failed.
        self.failed: list[int] = []
        #: perf_counter window of the section.
        self.start = 0.0
        self.end = 0.0

    def add(self, ms: float, ok: bool = True) -> None:
        if not ok:
            self.failed.append(len(self.ms))
        self.ms.append(ms)

    def __len__(self) -> int:
        return len(self.ms)


@dataclass
class Measurement:
    """Everything one run of one workload measured (before reduction)."""

    publish: Samples = field(default_factory=Samples)
    lookup: Samples = field(default_factory=Samples)
    #: Timed-section operations of every kind, in completion order.
    op: Samples = field(default_factory=Samples)
    #: wire_open only: the load generator's (StageSummary, latency sketch);
    #: its stores and retrieves are timed mixed, so there are no Samples.
    open_loop: Optional[tuple] = None
    setup_s: float = 0.0
    #: The timed section: perf_counter window, wall and process CPU.
    start: float = 0.0
    end: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: Operations of the timed section, and how many of them failed.
    ops: int = 0
    failed: int = 0
    interactions: float = 0.0
    bytes: float = 0.0
    counts: dict = field(default_factory=dict)
    #: Exactly repeatable statistics (compared with ``expected.json``).
    modelled: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    #: (check name, passed, detail) triples.
    checks: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    layer_tables: list = field(default_factory=list)
    span_count: int = 0

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))


class _Timed:
    """Wall, process CPU (``os.times``) and perf-counter deltas around a
    timed section."""

    def __init__(self, measurement: Measurement, recorder: Optional[spans.Recorder]):
        self.measurement = measurement
        self.recorder = recorder

    def __enter__(self) -> "_Timed":
        self._threads = _thread_cpu()
        self._counts = perf.snapshot()
        self._cpu = _process_cpu_s()
        if self.recorder is not None:
            self.recorder.on = True
        self.measurement.start = _clock()
        return self

    def __exit__(self, *exc_info) -> None:
        m = self.measurement
        m.end = _clock()
        if self.recorder is not None:
            self.recorder.on = False
        m.wall_s = m.end - m.start
        m.cpu_s = _process_cpu_s() - self._cpu
        m.counts = perf.delta(self._counts, perf.snapshot())
        if self.recorder is not None and exc_info[0] is None:
            after = _thread_cpu()
            thread_cpu = {
                name: after[name] - before
                for name, before in self._threads.items()
                if name in after
            }
            m.layer_tables = spans.layer_budget(self.recorder, m.wall_s, thread_cpu)
            m.span_count = self.recorder.span_count()


def _process_cpu_s() -> float:
    times = os.times()
    return times.user + times.system


def _thread_cpu() -> dict[str, float]:
    """CPU seconds so far of every live thread, by thread name (Linux)."""
    ticks = os.sysconf("SC_CLK_TCK")
    usage = {}
    for thread in threading.enumerate():
        try:
            with open(f"/proc/self/task/{thread.native_id}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        usage[thread.name] = (int(fields[11]) + int(fields[12])) / ticks
    return usage


def _scaled(value: float, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(value * scale)))


# -- simulated path ----------------------------------------------------------------


def _sim_config(name: str, seed: int, seconds: float, scale: float):
    if name == "sim_paper":
        # The paper's own cell: ideal ring, simple scheme, no cache,
        # sequential feed (50,000 queries is a 50-second section).
        config = replace(
            get_preset("paper"),
            num_queries=_scaled(SIM_PAPER_QUERIES_PER_S * seconds, scale),
            query_seed=seed,
        )
    else:
        # The `concurrent` preset at its own rates: 16 closed-loop users
        # on the event kernel, 5% drop, one churn event per 1,000 queries
        # and one crash per 5,000.  About one lookup in 3,000 exhausts
        # its retries and is counted as failed.
        queries = _scaled(SIM_CHURN_QUERIES_PER_S * seconds, scale)
        config = replace(
            get_preset("concurrent"),
            num_queries=queries,
            query_seed=seed,
            churn_events=max(1, round(queries / 1_000)),
            crash_events=max(1, round(queries / 5_000)),
        )
    if scale != 1.0:
        config = replace(
            config.scaled(scale),
            num_queries=config.num_queries,
            crash_downtime_queries=_scaled(config.crash_downtime_queries, scale),
        )
    return config


def run_sim(name, seed, seconds, scale, recorder) -> Measurement:
    m = Measurement()
    config = _sim_config(name, seed, seconds, scale)
    started = _clock()
    experiment = Experiment(config)
    experiment.populate()
    m.setup_s = _clock() - started

    # The host time of a lookup is the gap between two completions as
    # Experiment.trace_sink sees them.  Lookups are the only operations.
    lookup = m.publish = m.op = m.lookup
    last = [0.0]

    def sink(trace) -> None:
        now = _clock()
        lookup.add((now - last[0]) * 1000.0, trace.found)
        last[0] = now

    experiment.trace_sink = sink
    with _Timed(m, recorder):
        last[0] = m.start
        result = experiment.run()
    lookup.start, lookup.end = m.start, m.end
    m.peak_rss_mb = _peak_rss_mb()

    m.ops = result.searches
    m.failed = result.searches - result.found
    m.interactions = result.avg_interactions
    m.bytes = result.total_bytes_per_query
    m.counts["kernel_events_run"] = result.perf_counters.get("kernel_events_run", 0)
    m.modelled = {
        "found": result.found,
        "total_interactions": result.total_interactions,
        "normal_bytes_total": result.normal_bytes_total,
        "cache_bytes_total": result.cache_bytes_total,
        "cache_hits": result.cache_hits,
        "lookups_gave_up": result.lookups_gave_up,
        "repair_keys": result.repair_keys,
        "response_time_ms_p95": result.response_time_ms_p95,
    }
    m.extra["response_p95_vms"] = result.response_time_ms_p95

    try:
        result.validate()
        m.check("result.validate", True)
    except ValueError as error:
        m.check("result.validate", False, str(error))
    m.check(
        "every lookup completed",
        result.searches == config.num_queries == len(lookup),
        f"{result.searches} of {config.num_queries}",
    )
    if name == "sim_paper":
        m.check(
            "every lookup found its target",
            result.found == result.searches,
            f"{result.found} of {result.searches} found",
        )
    else:
        m.check(
            "success rate at least 0.99",
            result.found >= 0.99 * result.searches,
            f"{result.found} of {result.searches} found, "
            f"{result.lookups_gave_up} gave up",
        )
    return m


# -- wire path ---------------------------------------------------------------------


class _Wire:
    """A booted ``LocalCluster`` with one blocking client on it."""

    def __init__(self, out_dir: str, **cluster_options) -> None:
        self.data_root: Optional[str] = None
        if cluster_options.pop("durable", False):
            # Inside the checkout (the benchmark writes nowhere else);
            # removed in close(), also when the run fails.
            os.makedirs(out_dir, exist_ok=True)
            self.data_root = tempfile.mkdtemp(prefix="wal-", dir=out_dir)
            cluster_options["data_root"] = self.data_root
        self.cluster = LocalCluster(
            WIRE_NODES,
            substrate="chord",
            scheme="simple",
            cache="single",
            **cluster_options,
        )
        self.client: Optional[ClusterClient] = None
        try:
            self.cluster.start()
            self.client = self.cluster.client()
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        try:
            if self.client is not None:
                self.client.close()
                self.client = None
            self.cluster.stop()
        finally:
            if self.data_root is not None:
                shutil.rmtree(self.data_root, ignore_errors=True)
                self.data_root = None

    def __enter__(self) -> "_Wire":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class _Probe:
    """One generated lookup (the shape of ``WorkloadQuery`` the wire uses)."""

    query: FieldQuery
    target: object


def _draw_probe(records, published: int, rng: random.Random, shapes) -> _Probe:
    """A lookup of an already-published record: target uniform over the
    first ``published`` records, query shape from the BibFinder model."""
    target = records[rng.randrange(published)]
    return _Probe(FieldQuery.of_record(target, shapes.sample(rng)), target)


def _publish(client: ClusterClient, record, *into: Samples) -> None:
    start = _clock()
    client.insert_record(record)
    end = _clock()
    for samples in into:
        samples.add((end - start) * 1000.0)


def _lookup(client: ClusterClient, item, *into: Samples):
    """One closed-loop search; correct iff it returns the target's MSD."""
    start = _clock()
    trace = client.search(item.query, item.target)
    end = _clock()
    ok = trace.found and trace.result_msd == FieldQuery.msd_of(item.target).key()
    for samples in into:
        samples.add((end - start) * 1000.0, ok)
    return trace, ok


def _wire_setup(out_dir: str, cluster_options: dict, records, warmup) -> _Wire:
    """Boot, preload ``records``, run the ``warmup`` lookups."""
    wire = _Wire(out_dir, **cluster_options)
    try:
        for record in records:
            wire.client.insert_record(record)
        found = sum(_lookup(wire.client, item)[1] for item in warmup)
        if found != len(warmup):
            raise RuntimeError(
                f"warm-up: {found} of {len(warmup)} lookups found their target"
            )
    except BaseException:
        wire.close()
        raise
    return wire


def run_wire_lookup(seed, seconds, scale, recorder, out_dir):
    m = Measurement()
    corpus = SyntheticCorpus(
        CorpusConfig(num_articles=_scaled(WIRE_PRELOAD, scale, 20), seed=CORPUS_SEED)
    )
    warmup_count = _scaled(WIRE_WARMUP_LOOKUPS, scale, 10)
    count = _scaled(WIRE_LOOKUPS_PER_S * seconds, scale, 20)
    feed = list(QueryGenerator(corpus, seed=seed).generate(warmup_count + count))
    warmup, timed = feed[:warmup_count], feed[warmup_count:]
    options = dict(replication=1)

    started = _clock()
    wire = _wire_setup(out_dir, options, corpus.records, warmup)
    m.setup_s = _clock() - started
    lookup = m.publish = m.op = m.lookup
    with wire:
        client = wire.client
        interactions = 0
        with _Timed(m, recorder):
            for item in timed:
                interactions += _lookup(client, item, lookup)[0].interactions
        m.peak_rss_mb = _peak_rss_mb()
    lookup.start, lookup.end = m.start, m.end
    m.ops = len(timed)
    m.failed = len(lookup.failed)
    m.interactions = interactions / m.ops
    m.bytes = m.counts["rpc_bytes_sent"] / m.ops
    m.modelled = {"total_interactions": interactions}
    m.check(
        "every lookup returned the target's MSD",
        m.failed == 0,
        f"{m.ops - m.failed} of {m.ops}",
    )
    m.check(
        "signing off does no signing work",
        m.counts["sec_sign_calls"] == 0 and m.counts["sec_verify_calls"] == 0,
        f"{m.counts['sec_sign_calls']} signs, {m.counts['sec_verify_calls']} verifies",
    )
    return m


def run_wire_publish(seed, seconds, scale, recorder, out_dir):
    m = Measurement()
    preload = _scaled(WIRE_PUBLISH_PRELOAD, scale, 20)
    cycles = _scaled(WIRE_PUBLISH_CYCLES_PER_S * seconds, scale, 10)
    warmup_count = _scaled(WIRE_WARMUP_LOOKUPS, scale, 10)
    corpus = SyntheticCorpus(
        CorpusConfig(num_articles=preload + cycles, seed=CORPUS_SEED)
    )
    records = corpus.records
    rng = random.Random(seed)
    shapes = QueryStructureModel()
    warmup = [_draw_probe(records, preload, rng, shapes) for _ in range(warmup_count)]
    # After publish i, two lookups of records published so far.
    reads = [
        [_draw_probe(records, preload + index + 1, rng, shapes) for _ in range(2)]
        for index in range(cycles)
    ]
    options = dict(replication=3, signed=True, durable=True, fsync="interval:32")

    started = _clock()
    wire = _wire_setup(out_dir, options, records[:preload], warmup)
    m.setup_s = _clock() - started
    with wire:
        client = wire.client
        interactions = 0
        with _Timed(m, recorder):
            for index in range(cycles):
                _publish(client, records[preload + index], m.publish, m.op)
                for item in reads[index]:
                    interactions += _lookup(client, item, m.lookup, m.op)[0].interactions
        m.peak_rss_mb = _peak_rss_mb()
        republished = sum(
            _lookup(client, _Probe(FieldQuery.msd_of(record), record))[1]
            for record in records[preload:]
        )
        wal_sizes = [
            os.path.getsize(daemon.durable.wal_path)
            if daemon.durable is not None
            else 0
            for daemon in wire.cluster.daemons
        ]
        data_root = wire.data_root
    for samples in (m.publish, m.lookup, m.op):
        samples.start, samples.end = m.start, m.end
    m.ops = len(m.op)
    m.failed = len(m.op.failed)
    m.interactions = interactions / len(m.lookup)
    m.bytes = m.counts["rpc_bytes_sent"] / m.ops
    m.modelled = {"total_interactions": interactions}
    m.check(
        "every lookup returned the target's MSD",
        m.failed == 0,
        f"{len(m.lookup) - m.failed} of {len(m.lookup)}",
    )
    m.check(
        "every published record is found by its MSD afterwards",
        republished == cycles,
        f"{republished} of {cycles}",
    )
    m.check(
        "every reply was signed and verified",
        m.counts["sec_verify_calls"] >= m.counts["rpc_responses"] > 0,
        f"{m.counts['sec_verify_calls']} verifies for "
        f"{m.counts['rpc_responses']} responses",
    )
    m.check(
        "every daemon's WAL is non-empty",
        len(wal_sizes) == WIRE_NODES and all(size > 0 for size in wal_sizes),
        f"sizes {wal_sizes}",
    )
    m.check(
        "temporary data_root removed",
        data_root is not None and not os.path.exists(data_root),
        str(data_root),
    )
    return m


def run_wire_open(seed, seconds, scale, recorder, out_dir):
    m = Measurement()
    config = LoadTestConfig(
        num_nodes=WIRE_NODES,
        workers=1,
        processes=False,
        ramp=(WIRE_OPEN_RATE_HZ,),
        stage_seconds=seconds * scale,
        store_fraction=0.25,
        seed=seed,
        cache="single",
        replication=1,
        num_base_records=_scaled(WIRE_OPEN_BASE_RECORDS, scale, 20),
        store_pool_size=_scaled(WIRE_OPEN_STORE_POOL, scale, 20),
        start_grace_s=0.5,
        drain_timeout_s=10.0,
        # The report's percentiles come from a log-bucket sketch; at
        # the default gamma (2% buckets) two runs can read the same
        # bucket midpoint to the last digit.
        gamma=1.001,
    )
    # The corpus loadgen's worker will regenerate (its seed derives from
    # the workload seed): the base slice is what retrieves look up.
    corpus = SyntheticCorpus(
        CorpusConfig(
            num_articles=config.num_base_records + config.store_pool_size,
            seed=config.seed * 1_000_003 + 17,
        )
    )
    base = corpus.records[: config.num_base_records]
    rng = random.Random(seed)
    shapes = QueryStructureModel()
    warmup = [
        _draw_probe(base, len(base), rng, shapes)
        for _ in range(_scaled(WIRE_WARMUP_LOOKUPS, scale, 10))
    ]
    options = dict(replication=1)

    started = _clock()
    wire = _wire_setup(out_dir, options, base, warmup)
    m.setup_s = _clock() - started
    with wire:
        entry_classes = len(wire.client.scheme.entry_classes())
        config = replace(config, bootstrap=wire.cluster.daemons[0].address)
        with _Timed(m, recorder):
            report = loadgen_runner.run_load_test(config)
        m.peak_rss_mb = _peak_rss_mb()
    (stage,) = report.stages
    m.open_loop = (stage, report.sketches[0])
    digest = combine_digests(
        [
            schedule_digest(
                stage_schedule(
                    seed,
                    0,
                    0,
                    WIRE_OPEN_RATE_HZ,
                    config.stage_seconds,
                    store_fraction=config.store_fraction,
                    num_store_records=config.store_pool_size,
                    num_base_records=config.num_base_records,
                    num_entry_classes=entry_classes,
                )
            )
        ]
    )
    m.ops = stage.scheduled
    m.failed = stage.errors
    m.extra["max_start_skew_ms"] = stage.max_start_skew_s * 1000.0
    searches = max(1, m.counts["engine_searches"])
    m.interactions = (
        m.counts["service_queries"] + m.counts["service_file_fetches"]
    ) / searches
    m.bytes = m.counts["rpc_bytes_sent"] / max(1, m.ops)
    m.modelled = {"schedule_digest": report.digest, "scheduled": m.ops}
    m.check("no operation lost", stage.lost == 0)
    m.check("no duplicate completion", stage.duplicates == 0)
    m.check(
        "no operation failed",
        m.failed == 0,
        f"{stage.not_found} not found, {stage.gave_up} gave up, "
        f"{stage.delivery_errors} delivery errors",
    )
    m.check(
        "the schedule run is the one the seed generates",
        stage.digest == digest,
        f"{stage.digest} vs {digest}",
    )
    m.check(
        "every scheduled retrieve ran one search",
        m.counts["engine_searches"] == stage.retrieves,
        f"{m.counts['engine_searches']} searches",
    )
    return m


# -- entry point -------------------------------------------------------------------


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    scale: float = 1.0,
    trace: bool = False,
    out_dir: str = "bench/out",
) -> Measurement:
    """Run one workload once in this process: set-up, timed section, checks.

    With ``trace`` the layer boundaries are shadowed before set-up (so
    objects that cache bound methods see the wrappers), spans are
    recorded during the timed section only, and every shadowed attribute
    is restored before returning -- also when the run fails.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    os.makedirs(out_dir, exist_ok=True)
    recorder = None
    if trace:
        recorder = spans.Recorder()
        spans.install(recorder)
    try:
        if name.startswith("sim_"):
            m = run_sim(name, seed, seconds, scale, recorder)
        else:
            runner = {
                "wire_lookup": run_wire_lookup,
                "wire_publish": run_wire_publish,
                "wire_open": run_wire_open,
            }[name]
            m = runner(seed, seconds, scale, recorder, out_dir)
    finally:
        if recorder is not None:
            recorder.restore()
    if recorder is not None:
        m.extra["trace_file"] = os.path.join(out_dir, f"trace-{name}.jsonl")
        m.extra["trace_spans_written"] = recorder.write_jsonl(m.extra["trace_file"])
    return m


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
