#!/usr/bin/env python3
"""Compare two run sets: ``python3 bench/compare.py A.json B.json``.

A run set is what ``bench/run.py --repeat N --out FILE`` writes.  For
every workload and end-to-end metric this prints the median of each side
with its spread (distance between the quartiles as a share of the
median, as ``statistics.quantiles(values, n=4)`` gives them), the bound
from ``BENCHMARK.json`` and a verdict:

``ok``          B's median is not worse than A's by more than the bound;
``regressed``   it is, and the spread does not explain it;
``unresolved``  the spread of either side is wider than the bound and
                the two sides' runs overlap -- the runs cannot tell.

Exactly repeatable numbers are compared with ``==`` (bound 0) when both
sides ran the same seed: every workload's modelled statistics, and on the
simulated workloads ``interactions_per_query``, ``bytes_per_query``,
``response_p95_vms`` and ``failed_share``.  The bounds those metrics have
in ``BENCHMARK.json`` are for runs at different seeds.  ``failed_share``
elsewhere may rise by 0.001 absolute.

With one file it prints that set's medians and spreads beside the
bounds.  Exits non-zero if any row is ``regressed``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Not in BENCHMARK.json (they are 0 on most workloads) but compared.
FAILED_SHARE_BOUND = 0.001
EXACT_ON_SIM = (
    "interactions_per_query",
    "bytes_per_query",
    "response_p95_vms",
    "failed_share",
)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def by_workload(run_set: dict) -> dict[str, list[dict]]:
    grouped: dict[str, list[dict]] = {}
    for run in run_set["runs"]:
        grouped.setdefault(run["workload"], []).append(run)
    return grouped


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for < 2 runs)."""
    if len(values) < 2:
        return 0.0
    median = statistics.median(values)
    if median == 0:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(median)


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """ok / regressed / unresolved for one bounded metric."""
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (median_b - median_a) / abs(median_a) if median_a else 0.0
    wide = max(spread(a), spread(b)) > bound
    if wide:
        b_all_better = max(sign * v for v in b) < min(sign * v for v in a)
        b_all_worse = min(sign * v for v in b) > max(sign * v for v in a)
        if b_all_better:
            return "ok"
        if not b_all_worse:
            return "unresolved"
    return "regressed" if worse_by > bound else "ok"


def compare(set_a: dict, set_b: dict, spec: dict) -> tuple[list[list[str]], bool]:
    rows = []
    regressed = False
    runs_a, runs_b = by_workload(set_a), by_workload(set_b)
    for workload in (w["name"] for w in spec["workloads"]):
        a, b = runs_a.get(workload, []), runs_b.get(workload, [])
        if not a or not b:
            continue
        same_seed = len({r["seed"] for r in a + b}) == 1
        exact_here = workload.startswith("sim_") and same_seed
        metrics = [
            (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
        ] + [
            ("failed_share", "share", "lower", None),
            ("response_p95_vms", "vms", "lower", None),
        ]
        for name, unit, better, bound in metrics:
            values_a = [r["metrics"][name] for r in a]
            values_b = [r["metrics"][name] for r in b]
            median_a = statistics.median(values_a)
            median_b = statistics.median(values_b)
            if exact_here and name in EXACT_ON_SIM:
                same = len(set(values_a + values_b)) == 1
                result, shown = ("ok" if same else "regressed"), "=="
            elif name == "failed_share":
                worse = median_b - median_a > FAILED_SHARE_BOUND
                result, shown = ("regressed" if worse else "ok"), "+0.001"
            elif bound is None:
                continue  # response_p95_vms off the simulated path: no clock
            else:
                result, shown = verdict(values_a, values_b, better, bound), f"{bound:.0%}"
            regressed = regressed or result == "regressed"
            rows.append(
                [
                    workload,
                    name,
                    f"{median_a:.4f}",
                    f"{spread(values_a):.1%}",
                    f"{median_b:.4f}",
                    f"{spread(values_b):.1%}",
                    unit,
                    shown,
                    result,
                ]
            )
        if same_seed:
            same = all(r["modelled"] == a[0]["modelled"] for r in a + b)
            regressed = regressed or not same
            rows.append(
                [workload, "modelled statistics", "", "", "", "", "", "==",
                 "ok" if same else "regressed"]
            )
    return rows, regressed


def describe(run_set: dict, spec: dict) -> list[list[str]]:
    rows = []
    for workload, runs in by_workload(run_set).items():
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]] for r in runs]
            width = spread(values)
            rows.append(
                [
                    workload,
                    metric["name"],
                    f"{statistics.median(values):.4f}",
                    metric["unit"],
                    f"{width:.1%}",
                    f"{metric['bound']:.0%}",
                    "wide" if width > metric["bound"] else
                    ("" if width <= metric["bound"] / 3 else "over a third"),
                ]
            )
    return rows


def print_table(header: list[str], rows: list[list[str]]) -> None:
    widths = [max(len(str(cell)) for cell in column) for column in zip(header, *rows)]
    for line in [header] + rows:
        print("  ".join(str(cell).ljust(width) for cell, width in zip(line, widths)).rstrip())


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    sets = []
    for path in argv:
        with open(path) as handle:
            sets.append(json.load(handle))
    if len(sets) == 1:
        print_table(
            ["workload", "metric", "median", "unit", "spread", "bound", ""],
            describe(sets[0], spec),
        )
        return 0
    rows, regressed = compare(sets[0], sets[1], spec)
    print_table(
        ["workload", "metric", "A median", "A spread", "B median", "B spread",
         "unit", "bound", "verdict"],
        rows,
    )
    counts = {v: sum(1 for row in rows if row[-1] == v) for v in ("ok", "regressed", "unresolved")}
    print(
        f"{counts['ok']} ok, {counts['regressed']} regressed, "
        f"{counts['unresolved']} unresolved"
    )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
