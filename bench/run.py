#!/usr/bin/env python3
"""One benchmark for both paths: ``python3 bench/run.py``.

Without ``--workload`` it runs the five workloads of ``BENCHMARK.json``
one after the other, prints every metric by name with its unit, checks
the outputs, appends one record to ``bench/results/trajectory.jsonl``
and exits non-zero if a check failed.

One run of a workload is ``REPLICAS`` replicas: fresh child interpreters
that each set up and time ``--seconds / REPLICAS`` of the same inputs.
Each replica's metrics are the plain ones (``metrics.py``); the run
reports each metric's best replica.

With ``--workload NAME --seed N --seconds S --trace 0|1`` it runs one
workload and prints, as the last line of standard output, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

    --trace     a second, traced run per workload -> the layer budget
    --layers    the layer kernels (direct calls into one layer each)
    --quick     every size x0.1, one replica, no pins checked (the smoke test)
    --repeat N  N runs per workload, written as one set for compare.py

See bench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import subprocess
import sys
import time
from typing import Optional

import metrics

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
TRAJECTORY = os.path.join(BENCH_DIR, "results", "trajectory.jsonl")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")

#: Reported beside the end-to-end metrics but not among them: the driver
#: wants every end-to-end metric on every workload and never 0, and these
#: are 0 (no failures, no virtual clock) on most.  ``compare.py`` still
#: compares them (absolute bound, exact match).
ALSO_REPORTED = (("failed_share", "share"), ("response_p95_vms", "vms"))

#: A run is this many replicas -- each a fresh interpreter doing set-up
#: and a timed section of ``--seconds / REPLICAS`` on the same inputs.
REPLICAS = 3

#: A child is killed after this many seconds plus ten times its section's
#: (at --seconds 12: 70 s; the driver allows a whole run 180).
CHILD_TIMEOUT_S = 30


def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


# -- pins -------------------------------------------------------------------------


def check_pins(name: str, seed: int, seconds: float, quick: bool, result: dict) -> None:
    """Compare the exactly repeatable statistics with expected.json.

    The pins hold for one (seed, seconds) pair at full size; any other
    run is checked by the workload's own checks only.
    """
    if quick or not os.path.exists(EXPECTED_PATH):
        return
    with open(EXPECTED_PATH) as handle:
        expected = json.load(handle)
    if seed != expected["seed"] or seconds != expected["seconds"]:
        return
    pins = expected["workloads"].get(name, {})
    for key, value in pins.items():
        got = result["modelled"].get(key)
        result["checks"].append(
            (f"pinned {key}", got == value, f"{got!r}, pinned {value!r}")
        )


# -- one run: replicas in child interpreters ----------------------------------------


def child_main(args) -> int:
    """One replica: set-up, a timed section of ``--seconds``, checks."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    measurement = workloads.run_workload(
        args.workload,
        args.seed,
        args.seconds,
        scale=0.1 if args.quick else 1.0,
        trace=bool(args.trace),
        out_dir=OUT_DIR,
    )
    with open(args.result_file, "w") as handle:
        json.dump(metrics.reduce(measurement), handle)
    return 0


def run_child(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """Run one replica of one workload in a fresh interpreter; its result."""
    os.makedirs(OUT_DIR, exist_ok=True)
    result_file = os.path.join(
        OUT_DIR, f"result-{workload}-{'traced' if trace else 'plain'}-{os.getpid()}.json"
    )
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--child",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--trace", str(int(trace)),
        "--result-file", result_file,
    ]
    if quick:
        command.append("--quick")
    try:
        subprocess.run(
            command, check=True, timeout=CHILD_TIMEOUT_S + 10 * seconds, cwd=ROOT
        )
        with open(result_file) as handle:
            return json.load(handle)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
        # The child printed its own traceback; no result line follows.
        raise SystemExit(f"bench: {workload} did not finish: {error}") from None
    finally:
        if os.path.exists(result_file):
            os.remove(result_file)


def run_replicas(
    workload: str, seed: int, seconds: float, quick: bool, count: int, spec: dict
) -> dict:
    """One untraced run: ``count`` replicas, each timing ``seconds /
    REPLICAS``, combined (see ``metrics.combine``) and checked."""
    replicas = [
        run_child(workload, seed, seconds / REPLICAS, False, quick)
        for _ in range(count)
    ]
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    result = metrics.combine(replicas, better)
    check_pins(workload, seed, seconds, quick, result)
    return result


# -- per-layer metrics of a traced pass --------------------------------------------


def layer_metrics(plain: dict, traced: dict, spec: dict) -> dict:
    """Every ``per_layer`` metric of BENCHMARK.json for one workload."""
    import spans

    wall = traced["wall_s"]
    values: dict[str, float] = {}
    unattributed = 0.0
    totals = {layer: [0.0, 0] for layer in spans.LAYERS}
    for table in traced["layer_tables"]:
        for row in table["rows"]:
            if row["layer"] in totals:
                totals[row["layer"]][0] += row["self_s"]
                totals[row["layer"]][1] += row["calls"]
            elif row["layer"] == "unattributed" and table["thread"] == "MainThread":
                unattributed = row["share"]
    for layer, (self_s, calls) in totals.items():
        values[f"{layer}.self_s"] = self_s
        values[f"{layer}.share"] = self_s / wall
        values[f"{layer}.calls"] = calls
    values["unattributed.share"] = unattributed
    values["bench.trace_overhead_ratio"] = wall / plain["wall_s"]
    values.update(plain["layer_counts"])
    return {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in spec["per_layer"]
    }


# -- printing ----------------------------------------------------------------------


def print_workload(name: str, seed: int, seconds: float, result: dict, spec: dict) -> None:
    print(
        f"== {name}: seed {seed}, --seconds {seconds:g}, "
        f"{result['ops']} ops attempted, {result['failed']} failed, "
        f"{len(result['replicas'])} replicas, first timed section "
        f"{result['wall_s']:.2f} s =="
    )
    for metric in spec["end_to_end"]:
        value = result["end_to_end"][metric["name"]]
        print(f"  {metric['name']:<26} {value:>14.4f} {metric['unit']}")
    for metric_name, unit in ALSO_REPORTED:
        print(f"  {metric_name:<26} {result['also'][metric_name]:>14.4f} {unit}")
    printed = []
    for kind, summary in result["timings"].items():
        if summary in printed:
            continue  # one kind of operation under several names
        printed.append(summary)
        tail = ""
        if "tail" in summary:
            tail = f"  {summary['tail']} {summary['tail_ms']:.3f} ms"
        print(
            f"  {kind + ' timing':<26} p50 {summary['p50_ms']:.3f} ms  "
            f"p95 {summary['p95_ms']:.3f} ms{tail}  n={summary['count']}"
        )
    failed = [check for check in result["checks"] if not check[1]]
    print(f"  checks: {len(result['checks']) - len(failed)} passed, {len(failed)} failed")
    for check_name, _, detail in failed:
        print(f"    FAILED {check_name}: {detail}")


def print_layers(name: str, plain: dict, traced: dict, per_layer: dict) -> None:
    print(
        f"-- {name}: layer budget of the traced run "
        f"({traced['span_count']} spans, timed section {traced['wall_s']:.2f} s, "
        f"{per_layer['bench.trace_overhead_ratio']['value']:.2f}x the untraced "
        f"{plain['wall_s']:.2f} s) --"
    )
    for table in traced["layer_tables"]:
        print(f"  thread {table['thread']}")
        print(f"    {'layer':<16} {'self_s':>9} {'share':>7} {'calls':>10}")
        for row in table["rows"]:
            print(
                f"    {row['layer']:<16} {row['self_s']:>9.3f} "
                f"{100.0 * row['share']:>6.1f}% {row['calls']:>10}"
            )
    print("  counts at the same boundaries (untraced run)")
    for metric_name, entry in per_layer.items():
        if metric_name in plain["layer_counts"]:
            print(f"    {metric_name:<42} {entry['value']:>14.4f} {entry['unit']}")
    if "trace_file" in traced["extra"]:
        print(
            f"  trace: {traced['extra']['trace_spans_written']} spans in "
            f"{os.path.relpath(traced['extra']['trace_file'], ROOT)}"
        )


# -- run records -------------------------------------------------------------------


def fingerprint() -> dict:
    """Where and on what this record was taken."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.sec import NodeIdentity

    def git(*arguments: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ["git", *arguments], cwd=ROOT, capture_output=True, text=True, timeout=20
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    status = git("status", "--porcelain")
    return {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": git("rev-parse", "HEAD"),
        "dirty": bool(status) if status is not None else None,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "sec_backend": NodeIdentity("bench-fingerprint").backend,
        "uvloop": importlib.util.find_spec("uvloop") is not None,
    }


def record_of(result: dict) -> dict:
    return {
        "metrics": {**result["end_to_end"], **result["also"]},
        "ops": result["ops"],
        "failed": result["failed"],
        "modelled": result["modelled"],
        "correct": all(check[1] for check in result["checks"]),
    }


# -- main --------------------------------------------------------------------------


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this workload only")
    parser.add_argument("--seed", type=int, default=42, help="workload seed")
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="length of a timed section on the reference box "
        "(default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
        help="also make a traced run and print the layer budget",
    )
    parser.add_argument("--layers", action="store_true", help="run the layer kernels")
    parser.add_argument("--quick", action="store_true", help="every size x0.1")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload")
    parser.add_argument("--out", help="write the run set (for compare.py) here")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--result-file", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.child:
        return child_main(args)
    if args.layers:
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import layers

        return layers.main()

    names = [workload["name"] for workload in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    selected = [args.workload] if args.workload else names
    single = args.workload is not None
    # The driver's traced form reports per-layer metrics only: one
    # replica untraced (the counts, the overhead ratio), one traced.
    count = 1 if args.quick or (args.trace and single) else REPLICAS

    correct = True
    runs = []
    last = {}
    for _ in range(args.repeat):
        for name in selected:
            plain = run_replicas(name, args.seed, args.seconds, args.quick, count, spec)
            print_workload(name, args.seed, args.seconds, plain, spec)
            entry = {"workload": name, "seed": args.seed, **record_of(plain)}
            per_layer = None
            if args.trace:
                traced = run_child(
                    name, args.seed, args.seconds / REPLICAS, True, args.quick
                )
                per_layer = layer_metrics(plain, traced, spec)
                print_layers(name, plain, traced, per_layer)
                entry["per_layer"] = {
                    key: value["value"] for key, value in per_layer.items()
                }
                entry["correct"] = entry["correct"] and all(
                    check[1] for check in traced["checks"]
                )
                for check_name, passed, detail in traced["checks"]:
                    if not passed:
                        print(f"    FAILED (traced run) {check_name}: {detail}")
            correct = correct and entry["correct"]
            runs.append(entry)
            last = {"plain": plain, "per_layer": per_layer}
            sys.stdout.flush()

    if single and args.repeat == 1:
        plain = last["plain"]
        if args.trace:
            values = last["per_layer"]
        else:
            values = {
                metric["name"]: {
                    "value": plain["end_to_end"][metric["name"]],
                    "unit": metric["unit"],
                }
                for metric in spec["end_to_end"]
            }
        print(
            json.dumps(
                {
                    "correct": correct,
                    "attempted": plain["ops"],
                    "failed": plain["failed"],
                    "metrics": values,
                }
            )
        )
        return 0 if correct else 1

    run_set = {
        "meta": {**fingerprint(), "seed": args.seed, "seconds": args.seconds,
                 "quick": args.quick, "repeat": args.repeat},
        "runs": runs,
    }
    out_path = args.out or os.path.join(
        OUT_DIR, time.strftime("runs-%Y%m%dT%H%M%S.json", time.gmtime())
    )
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w") as handle:
        json.dump(run_set, handle, indent=1)
    print(f"run set written to {os.path.relpath(out_path, ROOT)}")
    if not args.quick and not single:
        # One schema, one trajectory: a full-size suite run is a record.
        os.makedirs(os.path.dirname(TRAJECTORY), exist_ok=True)
        with open(TRAJECTORY, "a") as handle:
            handle.write(json.dumps(run_set, sort_keys=True) + "\n")
        print(f"record appended to {os.path.relpath(TRAJECTORY, ROOT)}")
    print("all checks passed" if correct else "CHECKS FAILED")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
