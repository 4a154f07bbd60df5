"""Reduction: one workload's raw measurement -> its named metrics.

Plain definitions.  A rate is operations completed without error per
wall second of the section they ran in; a percentile is over every
sample of the section; ``cpu_ms_per_op`` is the process's user+sys CPU
(``os.times``) over the timed section divided by its operations.

Where each end-to-end metric comes from, per workload, is tabulated in
bench/README.md.
"""

from __future__ import annotations

import math

#: An operation slower than this misses the latency limit
#: (``within_limit_share``); so does one that fails.
LATENCY_LIMIT_MS = 25.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def percentile(ordered, fraction: float) -> float:
    """Nearest-rank ``fraction`` quantile of an ascending sequence."""
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def kind_summary(samples) -> dict:
    """Rate and latency of one kind of operation over its section.

    Gives the median and p95, the highest percentile with at least ten
    samples beyond it, and the sample count.
    """
    ordered = sorted(samples.ms)
    count = len(ordered)
    failed = set(samples.failed)
    within = sum(
        1
        for index, ms in enumerate(samples.ms)
        if ms <= LATENCY_LIMIT_MS and index not in failed
    )
    summary = {
        "count": count,
        "per_s": _ratio(count - len(failed), samples.end - samples.start),
        "p50_ms": percentile(ordered, 0.50),
        "p95_ms": percentile(ordered, 0.95),
        "within_limit_share": _ratio(within, count),
    }
    for label, fraction in (("p99.99", 0.9999), ("p99.9", 0.999), ("p99", 0.99)):
        if count * (1.0 - fraction) >= 10:
            summary["tail"] = label
            summary["tail_ms"] = percentile(ordered, fraction)
            break
    return summary


def open_loop_summary(m) -> dict:
    """wire_open's mixed operations, as the load generator kept them:
    latency from each operation's due instant, in a quantile sketch."""
    stage, sketch = m.open_loop
    state = sketch.to_state()
    limit = math.floor(math.log(LATENCY_LIMIT_MS) / math.log(state["gamma"]))
    in_time = state["zero_count"] + sum(
        count for index, count in state["buckets"].items() if int(index) <= limit
    )
    # Failed operations that completed sit in the sketch too; lost or
    # refused ones are scheduled but never reach it.
    in_time -= stage.errors - stage.lost
    return {
        "count": stage.completed,
        "per_s": _ratio(stage.completed - (stage.errors - stage.lost), m.wall_s),
        "p50_ms": stage.p50_ms,
        "p95_ms": stage.p95_ms,
        "tail": "p99",
        "tail_ms": stage.p99_ms,
        "within_limit_share": _ratio(max(0, in_time), stage.scheduled),
    }


def reduce(m) -> dict:
    """Every named metric of one measurement, plus what prints beside them."""
    # A workload whose timed section has one kind of operation reads
    # that kind under every per-kind name (its Samples are one object).
    if m.open_loop is not None:
        lookup = publish = op = open_loop_summary(m)
    else:
        lookup, publish, op = (kind_summary(s) for s in (m.lookup, m.publish, m.op))
    counts = m.counts
    searches = max(1, counts.get("engine_searches", 0))
    ops = max(1, m.ops)
    timed_publishes = len(m.publish) if counts.get("wal_appends") else 0

    end_to_end = {
        "setup_s": m.setup_s,
        "lookups_per_s": lookup["per_s"],
        "publishes_per_s": publish["per_s"],
        "lookup_p50_ms": lookup["p50_ms"],
        "lookup_p95_ms": lookup["p95_ms"],
        "publish_p50_ms": publish["p50_ms"],
        "publish_p95_ms": publish["p95_ms"],
        "op_p50_ms": op["p50_ms"],
        "op_p95_ms": op["p95_ms"],
        "within_limit_share": op["within_limit_share"],
        "cpu_ms_per_op": m.cpu_s * 1000.0 / ops,
        "peak_rss_mb": m.peak_rss_mb,
        "interactions_per_query": m.interactions,
        "bytes_per_query": m.bytes,
    }
    response_p95_vms = m.extra.get("response_p95_vms", 0.0)
    layer_counts = {
        "core.query.parse_calls_per_lookup": _ratio(
            counts["field_parse_calls"], searches
        ),
        "core.query.parse_hit_ratio": _ratio(
            counts["field_parse_cache_hits"], counts["field_parse_calls"]
        ),
        "xmlq.parses": counts["xpath_parses"],
        "core.engine.retries": counts["engine_retries"],
        "core.engine.gave_up": counts["engine_gave_up"],
        "core.service.queries_per_lookup": _ratio(counts["service_queries"], searches),
        "core.service.failovers": counts["service_failovers"],
        "storage.store.repair_keys": counts["storage_repair_keys"],
        "storage.store.failovers": counts["storage_failovers"],
        "net.fault_drops": counts["fault_drops"],
        "sim.kernel.events_per_lookup": _ratio(
            counts.get("kernel_events_run", 0), searches
        ),
        "sim.kernel.response_p95_vms": response_p95_vms,
        "storage.durable.wal_appends_per_publish": _ratio(
            counts["wal_appends"], timed_publishes
        ),
        "storage.durable.wal_bytes_per_publish": _ratio(
            counts["wal_bytes"], timed_publishes
        ),
        "storage.durable.fsyncs": counts["wal_fsyncs"],
        "rpc.transport.requests_per_op": _ratio(counts["rpc_requests"], ops),
        "rpc.transport.bytes_per_op": _ratio(counts["rpc_bytes_sent"], ops),
        "rpc.transport.retries": counts["rpc_retries"],
        "rpc.transport.timeouts": counts["rpc_timeouts"],
        "rpc.transport.tcp_reuse_ratio": _ratio(
            counts["rpc_tcp_reuses"],
            counts["rpc_tcp_reuses"] + counts["rpc_tcp_connects"],
        ),
        "rpc.transport.batch_size": _ratio(
            counts["rpc_batched_messages"], counts["rpc_batches"]
        ),
        "sec.sign_calls_per_op": _ratio(counts["sec_sign_calls"], ops),
        "sec.verify_calls_per_op": _ratio(counts["sec_verify_calls"], ops),
        "loadgen.max_start_skew_ms": m.extra.get("max_start_skew_ms", 0.0),
    }
    return {
        "end_to_end": end_to_end,
        "response_p95_vms": response_p95_vms,
        "layer_counts": layer_counts,
        "timings": {"lookup": lookup, "publish": publish, "op": op},
        "ops": m.ops,
        "failed": m.failed,
        "wall_s": m.wall_s,
        "modelled": m.modelled,
        "checks": m.checks,
        "layer_tables": m.layer_tables,
        "span_count": m.span_count,
        "extra": m.extra,
    }


def combine(replicas: list[dict], better: dict) -> dict:
    """One run's metrics from its replicas' (``reduce`` results).

    The replicas are separate processes given the same inputs.  Each
    one's metrics are the plain ones above; the run's value of a metric
    is the best replica's (``better`` gives each metric's direction), as
    ``timeit`` reports the fastest repeat: on a shared machine nearly all
    the variation between replicas is the machine slowing one down.
    Counts are summed.
    """
    first = replicas[0]
    ops = sum(replica["ops"] for replica in replicas)
    failed = sum(replica["failed"] for replica in replicas)
    checks = [check for replica in replicas for check in replica["checks"]]
    checks.append(
        (
            "replicas agree on the modelled statistics",
            all(replica["modelled"] == first["modelled"] for replica in replicas),
            str([replica["modelled"] for replica in replicas]),
        )
    )
    return {
        **first,
        "end_to_end": {
            name: (max if better[name] == "higher" else min)(
                replica["end_to_end"][name] for replica in replicas
            )
            for name in first["end_to_end"]
        },
        "also": {
            "failed_share": failed / max(1, ops),
            "response_p95_vms": first["response_p95_vms"],
        },
        "replicas": [replica["end_to_end"] for replica in replicas],
        "ops": ops,
        "failed": failed,
        "checks": checks,
    }
