"""Load-test orchestration: cluster, worker fleet, merged capacity model.

:func:`run_load_test` is the programmatic face of
``python -m repro.loadgen``: boot a :class:`LocalCluster` (or aim at an
already-running bootstrap daemon), seed the base corpus the retrieves
will look up, fan the deterministic per-worker schedules out to worker
processes, and fold the per-worker, per-stage
:class:`LogBucketQuantiles` states back into one
:class:`CapacityReport` with the knee verdict.

Worker processes are *spawned* (never forked -- the parent runs live
asyncio threads) and synchronize on a shared wall-clock start instant,
so every worker's stage 0 begins together; per-worker start skew is
measured and reported rather than assumed away.  ``processes=False``
runs the same workers on threads inside this process -- exact for one
worker, convenient for tests -- while the capacity CLI keeps real
processes so the generator itself does not hit one interpreter's
ceiling before the cluster does.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Optional

from repro.analysis.stats import LogBucketQuantiles
from repro.dht import DEFAULT_BITS
from repro.loadgen.report import (
    CapacityReport,
    StageSummary,
    detect_knee,
)
from repro.loadgen.schedule import combine_digests
from repro.loadgen.worker import (
    StagePlan,
    WorkerConfig,
    WorkerResult,
    run_worker,
)
from repro.rpc.cluster import LocalCluster


@dataclass
class LoadTestConfig:
    """One capacity run: cluster shape, ramp, mix, and determinism."""

    num_nodes: int = 5
    workers: int = 2
    #: Offered load per ramp stage, operations/second across ALL workers.
    ramp: tuple[float, ...] = (50.0, 100.0, 200.0)
    stage_seconds: float = 5.0
    store_fraction: float = 0.25
    seed: int = 42
    substrate: str = "chord"
    scheme: str = "simple"
    cache: str = "multi"
    replication: int = 1
    bits: int = DEFAULT_BITS
    num_base_records: int = 50
    store_pool_size: int = 200
    request_timeout_ms: float = 250.0
    max_retries: int = 3
    #: Grace between worker setup and the common start instant.
    start_grace_s: float = 2.0
    drain_timeout_s: float = 15.0
    gamma: float = 1.02
    #: Real worker processes (the capacity default) vs in-process threads.
    processes: bool = True
    #: Attach to an existing daemon instead of booting a LocalCluster.
    bootstrap: Optional[tuple[str, int]] = None
    extra_meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("need at least one worker")
        if not self.ramp or not all(0 < rate < math.inf for rate in self.ramp):
            raise ValueError("ramp needs positive, finite rates")
        if not 0 < self.stage_seconds < math.inf:
            raise ValueError("stage seconds must be positive and finite")
        if not 0 <= self.drain_timeout_s < math.inf:
            raise ValueError("drain seconds must be finite and non-negative")
        if not 0 < self.request_timeout_ms < math.inf:
            raise ValueError("request timeout must be positive, finite milliseconds")
        if self.num_base_records < 1:
            raise ValueError("need at least one base record")

    def describe(self) -> dict:
        """The config echo embedded in the benchmark record."""
        return {
            "num_nodes": self.num_nodes,
            "workers": self.workers,
            "ramp_hz": list(self.ramp),
            "stage_seconds": self.stage_seconds,
            "store_fraction": self.store_fraction,
            "seed": self.seed,
            "substrate": self.substrate,
            "scheme": self.scheme,
            "cache": self.cache,
            "replication": self.replication,
            "num_base_records": self.num_base_records,
            "store_pool_size": self.store_pool_size,
            **self.extra_meta,
        }


def worker_configs(
    config: LoadTestConfig, bootstrap: tuple[str, int], start_at: float
) -> list[WorkerConfig]:
    """The per-worker slices of one run's offered load.

    Each stage's total rate splits evenly across the workers; offsets
    stack the stages back to back from the shared start instant.
    """
    plans = []
    offset = 0.0
    for index, rate in enumerate(config.ramp):
        plans.append(
            StagePlan(
                index=index,
                rate_hz=rate / config.workers,
                duration_s=config.stage_seconds,
                offset_s=offset,
            )
        )
        offset += config.stage_seconds
    return [
        WorkerConfig(
            worker=worker,
            seed=config.seed,
            bootstrap=bootstrap,
            stages=tuple(plans),
            substrate=config.substrate,
            scheme=config.scheme,
            cache=config.cache,
            replication=config.replication,
            bits=config.bits,
            store_fraction=config.store_fraction,
            corpus_seed=config.seed * 1_000_003 + 17,
            num_base_records=config.num_base_records,
            store_pool_size=config.store_pool_size,
            start_at=start_at,
            request_timeout_ms=config.request_timeout_ms,
            max_retries=config.max_retries,
            gamma=config.gamma,
            drain_timeout_s=config.drain_timeout_s,
        )
        for worker in range(config.workers)
    ]


def merge_results(
    config: LoadTestConfig, results: list[WorkerResult]
) -> CapacityReport:
    """Fold per-worker stage outcomes into the run's capacity report."""
    stages: list[StageSummary] = []
    sketches: list[LogBucketQuantiles] = []
    run_digests: list[str] = []
    for stage_index in range(len(config.ramp)):
        outcomes = [
            outcome
            for result in results
            for outcome in result.stages
            if outcome.stage == stage_index
        ]
        sketch = LogBucketQuantiles(gamma=config.gamma)
        for outcome in outcomes:
            if outcome.sketch_state:
                sketch.merge(
                    LogBucketQuantiles.from_state(outcome.sketch_state)
                )
        digests = [
            outcome.digest
            for _, outcome in sorted(
                (result.worker, outcome)
                for result in results
                for outcome in result.stages
                if outcome.stage == stage_index
            )
        ]
        digest = combine_digests(digests)
        run_digests.append(digest)
        has_samples = sketch.count > 0
        stages.append(
            StageSummary(
                stage=stage_index,
                offered_hz=config.ramp[stage_index],
                duration_s=config.stage_seconds,
                scheduled=sum(o.scheduled for o in outcomes),
                completed=sum(o.completed for o in outcomes),
                stores=sum(o.stores for o in outcomes),
                retrieves=sum(o.retrieves for o in outcomes),
                not_found=sum(o.not_found for o in outcomes),
                gave_up=sum(o.gave_up for o in outcomes),
                delivery_errors=sum(o.delivery_errors for o in outcomes),
                lost=sum(o.lost for o in outcomes),
                duplicates=sum(o.duplicates for o in outcomes),
                p50_ms=sketch.percentile(0.50) if has_samples else 0.0,
                p95_ms=sketch.percentile(0.95) if has_samples else 0.0,
                p99_ms=sketch.percentile(0.99) if has_samples else 0.0,
                mean_ms=sketch.mean if has_samples else 0.0,
                digest=digest,
                max_start_skew_s=max(
                    (o.start_skew_s for o in outcomes), default=0.0
                ),
            )
        )
        sketches.append(sketch)
    return CapacityReport(
        config=config.describe(),
        stages=stages,
        knee=detect_knee(stages),
        digest=combine_digests(run_digests),
        sketches=sketches,
    )


def seed_base_records(
    cluster_or_bootstrap, config: LoadTestConfig
) -> None:
    """Publish the base corpus the retrieve mix will look up.

    Accepts a :class:`LocalCluster` (uses a throwaway client) so every
    retrieve target exists before the first arrival fires.
    """
    from repro.workload.corpus import CorpusConfig, SyntheticCorpus

    corpus = SyntheticCorpus(
        CorpusConfig(
            num_articles=config.num_base_records + config.store_pool_size,
            seed=config.seed * 1_000_003 + 17,
        )
    )
    client = cluster_or_bootstrap.client()
    try:
        for record in corpus.records[: config.num_base_records]:
            client.insert_record(record)
    finally:
        client.close()


def run_load_test(config: LoadTestConfig) -> CapacityReport:
    """Execute one full ramp and return the merged capacity report."""
    cluster: Optional[LocalCluster] = None
    try:
        if config.bootstrap is None:
            cluster = LocalCluster(
                config.num_nodes,
                substrate=config.substrate,
                scheme=config.scheme,
                cache=config.cache,
                replication=config.replication,
                bits=config.bits,
                request_timeout_ms=config.request_timeout_ms,
                max_retries=config.max_retries,
            ).start()
            seed_base_records(cluster, config)
            bootstrap = cluster.daemons[0].address
        else:
            bootstrap = config.bootstrap
        start_at = time.time() + config.start_grace_s + 0.5 * config.workers
        configs = worker_configs(config, bootstrap, start_at)
        if config.processes:
            with ProcessPoolExecutor(
                max_workers=config.workers,
                mp_context=get_context("spawn"),
            ) as pool:
                results = list(pool.map(run_worker, configs))
        else:
            with ThreadPoolExecutor(max_workers=config.workers) as pool:
                results = list(pool.map(run_worker, configs))
        return merge_results(config, results)
    finally:
        if cluster is not None:
            cluster.stop()
