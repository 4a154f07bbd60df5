"""Capacity-model reporting: stage summaries, knee detection, BENCH file.

A load test produces one :class:`StageSummary` per ramp stage (offered
load, achieved throughput, latency percentiles, error accounting,
schedule digest).  :func:`detect_knee` turns the stage sequence
into the capacity verdict -- the first stage where *goodput flattens
while latency inflects* -- and :func:`append_bench_record` persists the
whole trajectory to ``BENCH_rpc.json`` in the same append-only format
the kernel and query benchmarks use.

Knee semantics, precisely: walking the ramp in order, stage *i* is the
knee when

- **goodput flattens**: of the offered-load increase over stage *i-1*,
  less than ``gain_floor`` (default 50%) converts into goodput -- the
  marginal request is no longer being served; and
- **latency inflects or errors surface**: p95 grows by more than
  ``latency_inflection``x (default 2x) over the previous stage, or the
  error rate exceeds ``error_ceiling`` (default 5%) -- queueing or
  shedding, the two faces of saturation.

If no stage satisfies both, capacity was not reached within the ramp
and the report says so (``knee = None``); the peak measured goodput is
still reported as a lower bound.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Optional

from repro.analysis.stats import LogBucketQuantiles
from repro.analysis.tables import format_table


@dataclass
class StageSummary:
    """Everything one ramp stage measured, merged across workers."""

    stage: int
    offered_hz: float
    duration_s: float
    scheduled: int
    completed: int
    stores: int
    retrieves: int
    not_found: int
    gave_up: int
    delivery_errors: int
    lost: int
    duplicates: int
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_ms: float
    digest: str
    #: Per-worker clock skew at stage start (honesty probe), seconds.
    max_start_skew_s: float = 0.0

    @property
    def errors(self) -> int:
        """Operations that completed wrong or never completed."""
        return self.not_found + self.gave_up + self.delivery_errors + self.lost

    @property
    def error_rate(self) -> float:
        """Fraction of scheduled operations that errored or were lost."""
        return self.errors / self.scheduled if self.scheduled else 0.0

    @property
    def throughput_hz(self) -> float:
        """Completed operations per second of stage time."""
        return self.completed / self.duration_s if self.duration_s else 0.0

    @property
    def goodput_hz(self) -> float:
        """Successfully served operations per second of stage time."""
        good = self.completed - self.not_found - self.gave_up - self.delivery_errors
        return max(0.0, good) / self.duration_s if self.duration_s else 0.0

    def to_dict(self) -> dict:
        """Return a JSON-ready mapping including the derived rates."""
        record = asdict(self)
        record["errors"] = self.errors
        record["error_rate"] = round(self.error_rate, 6)
        record["throughput_hz"] = round(self.throughput_hz, 3)
        record["goodput_hz"] = round(self.goodput_hz, 3)
        return record


@dataclass
class KneeReport:
    """The detected saturation point of a ramp."""

    stage: int
    offered_hz: float
    goodput_hz: float
    reason: str


@dataclass
class CapacityReport:
    """One complete load-test result: config echo, stages, verdict."""

    config: dict
    stages: list[StageSummary]
    knee: Optional[KneeReport]
    digest: str
    #: Latency sketches per stage (kept for callers that post-process).
    sketches: list[LogBucketQuantiles] = field(default_factory=list)

    @property
    def peak_goodput_hz(self) -> float:
        """Best goodput any single stage achieved."""
        return max((s.goodput_hz for s in self.stages), default=0.0)


def detect_knee(
    stages: list[StageSummary],
    *,
    gain_floor: float = 0.5,
    latency_inflection: float = 2.0,
    error_ceiling: float = 0.05,
) -> Optional[KneeReport]:
    """First stage where goodput flattens while latency inflects.

    See the module docstring for exact semantics.  Stages must be in
    ramp order; stages whose offered load did not increase over the
    previous stage are skipped (no marginal load to judge by).
    """
    for previous, current in zip(stages, stages[1:]):
        added_offer = current.offered_hz - previous.offered_hz
        if added_offer <= 0:
            continue
        gain = (current.goodput_hz - previous.goodput_hz) / added_offer
        if gain >= gain_floor:
            continue
        inflected = (
            previous.p95_ms > 0
            and current.p95_ms > latency_inflection * previous.p95_ms
        )
        shedding = current.error_rate > error_ceiling
        if not (inflected or shedding):
            continue
        causes = [f"goodput gain {gain:.2f} < {gain_floor:.2f}"]
        if inflected:
            causes.append(
                f"p95 inflected {current.p95_ms / previous.p95_ms:.1f}x"
            )
        if shedding:
            causes.append(f"error rate {current.error_rate:.1%}")
        return KneeReport(
            stage=current.stage,
            offered_hz=current.offered_hz,
            goodput_hz=current.goodput_hz,
            reason="; ".join(causes),
        )
    return None


def format_capacity_report(report: CapacityReport) -> str:
    """The human-facing capacity table + verdict the CLI prints."""
    rows = [
        [
            summary.stage,
            f"{summary.offered_hz:.0f}",
            f"{summary.throughput_hz:.1f}",
            f"{summary.goodput_hz:.1f}",
            f"{summary.p50_ms:.1f}",
            f"{summary.p95_ms:.1f}",
            f"{summary.p99_ms:.1f}",
            f"{summary.error_rate:.2%}",
            summary.scheduled,
        ]
        for summary in report.stages
    ]
    table = format_table(
        [
            "stage",
            "offered/s",
            "tput/s",
            "goodput/s",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "err",
            "ops",
        ],
        rows,
        title="Offered load vs throughput/latency (repro.rpc capacity)",
    )
    if report.knee is not None:
        verdict = (
            f"knee at stage {report.knee.stage}: offered "
            f"{report.knee.offered_hz:.0f}/s served "
            f"{report.knee.goodput_hz:.1f}/s ({report.knee.reason})"
        )
    else:
        verdict = (
            "knee not reached within the ramp; peak goodput "
            f"{report.peak_goodput_hz:.1f}/s is a lower capacity bound"
        )
    return f"{table}\n{verdict}\nschedule digest {report.digest}"


def append_bench_record(path: str, record: dict) -> None:
    """Append one run record to the BENCH trajectory file at ``path``.

    The file holds a JSON list of records, newest last -- the same
    shape as ``BENCH_kernel.json`` / ``BENCH_query.json``.
    """
    history: list = []
    if os.path.exists(path):
        with open(path) as handle:
            try:
                history = json.load(handle)
            except json.JSONDecodeError:
                history = []
        if not isinstance(history, list):
            history = [history]
    history.append(record)
    with open(path, "w") as handle:
        json.dump(history, handle, indent=2)
        handle.write("\n")


def bench_record(report: CapacityReport) -> dict:
    """The JSON-safe form of one capacity run for the BENCH file."""
    return {
        "config": report.config,
        "stages": [summary.to_dict() for summary in report.stages],
        "knee": asdict(report.knee) if report.knee is not None else None,
        "peak_goodput_hz": round(report.peak_goodput_hz, 3),
        "schedule_digest": report.digest,
    }
