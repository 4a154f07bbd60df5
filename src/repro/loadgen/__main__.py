"""``python -m repro.loadgen``: run a capacity ramp, print the knee.

Boots a loopback cluster, ramps an open-loop store/retrieve mix across
worker processes, prints the offered-load vs throughput/latency table
with the knee verdict, and appends the run to ``BENCH_rpc.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from repro.core.scheme import SCHEMES
from repro.dht import SUBSTRATES
from repro.loadgen.report import (
    append_bench_record,
    bench_record,
    format_capacity_report,
)
from repro.loadgen.runner import LoadTestConfig, run_load_test
from repro.rpc.transport import AsyncioTransport


def parse_ramp(text: str) -> tuple[float, ...]:
    """A comma-separated offered-load ramp, e.g. ``50,100,200,400``."""
    try:
        stages = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad ramp: {text!r}") from None
    if not stages or not all(0 < rate < math.inf for rate in stages):
        raise argparse.ArgumentTypeError("ramp needs positive, finite rates")
    return stages


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.loadgen",
        description=(
            "Open-loop load generator for the repro.rpc cluster: ramp "
            "offered load in stages, measure throughput and latency "
            "percentiles, detect the capacity knee."
        ),
    )
    parser.add_argument(
        "--nodes", type=int, default=5, help="cluster size (default 5)"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="load-generator worker processes (default 2)",
    )
    parser.add_argument(
        "--ramp",
        type=parse_ramp,
        default=(50.0, 100.0, 200.0, 400.0),
        help="comma-separated offered ops/s per stage (default 50,100,200,400)",
    )
    parser.add_argument(
        "--stage-seconds",
        type=float,
        default=5.0,
        help="duration of each ramp stage (default 5)",
    )
    parser.add_argument(
        "--store-fraction",
        type=float,
        default=0.25,
        help="store share of the mix (default 0.25, i.e. store:retrieve 1:3)",
    )
    parser.add_argument("--seed", type=int, default=42, help="schedule seed")
    parser.add_argument(
        "--substrate",
        choices=SUBSTRATES,
        default="chord",
        help="DHT substrate (default chord)",
    )
    parser.add_argument(
        "--scheme",
        choices=SCHEMES,
        default="simple",
        help="indexing scheme (default simple)",
    )
    parser.add_argument(
        "--cache", default="multi", help="cache policy (default multi)"
    )
    parser.add_argument(
        "--replication", type=int, default=1, help="replica count (default 1)"
    )
    parser.add_argument(
        "--base-records",
        type=int,
        default=50,
        help="pre-seeded records the retrieves target (default 50)",
    )
    parser.add_argument(
        "--request-timeout-ms",
        type=float,
        default=AsyncioTransport.REQUEST_TIMEOUT_MS,
        help="per-request transport deadline (default %(default)g)",
    )
    parser.add_argument(
        "--drain-seconds",
        type=float,
        default=15.0,
        help="grace after the last stage before in-flight ops count lost",
    )
    parser.add_argument(
        "--threads",
        action="store_true",
        help="run workers on threads in-process instead of spawned processes",
    )
    parser.add_argument(
        "--out",
        default="BENCH_rpc.json",
        help="benchmark trajectory file to append to (default BENCH_rpc.json)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the run record as JSON instead of the table",
    )
    parser.add_argument(
        "--label", default="", help="free-form label stored with the record"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)
    try:
        config = LoadTestConfig(
            num_nodes=options.nodes,
            workers=options.workers,
            ramp=options.ramp,
            stage_seconds=options.stage_seconds,
            store_fraction=options.store_fraction,
            seed=options.seed,
            substrate=options.substrate,
            scheme=options.scheme,
            cache=options.cache,
            replication=options.replication,
            num_base_records=options.base_records,
            request_timeout_ms=options.request_timeout_ms,
            drain_timeout_s=options.drain_seconds,
            processes=not options.threads,
            extra_meta={"label": options.label} if options.label else {},
        )
    except ValueError as error:
        parser.error(str(error))
    report = run_load_test(config)
    record = bench_record(report)
    if options.out:
        append_bench_record(options.out, record)
    if options.json:
        print(json.dumps(record, indent=2))
    else:
        print(format_capacity_report(report))
        if options.out:
            print(f"appended to {options.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
