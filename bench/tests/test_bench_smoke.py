"""Smoke test of the benchmark itself: ``python -m pytest bench/tests -q``.

Outside tier 1 on purpose (``testpaths = ["tests"]``): it starts
interpreters and socket clusters.  Runs ``bench/run.py --quick`` and
checks that every metric named in ``BENCHMARK.json`` is printed with its
unit, that tracing restores everything it shadowed, and that
``compare.py`` calls a slowdown beyond a metric's bound a regression and
a 2% one not.
"""

import copy
import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def run_bench(*arguments, timeout=170):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *arguments],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


def test_spec_is_within_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert all(0 <= m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_quick_suite_prints_every_metric_with_its_unit(tmp_path):
    out = tmp_path / "quick.json"
    stdout = run_bench("--quick", "--trace", "--out", str(out))
    lines = stdout.splitlines()
    for workload in workloads.WORKLOADS:
        assert any(line.startswith(f"== {workload}:") for line in lines)
    for metric in SPEC["end_to_end"]:
        printed = [
            line.split() for line in lines if line.split()[:1] == [metric["name"]]
        ]
        assert len(printed) == len(workloads.WORKLOADS), metric["name"]
        assert all(parts[2] == metric["unit"] for parts in printed), metric["name"]
    run_set = json.loads(out.read_text())
    assert len(run_set["runs"]) == len(workloads.WORKLOADS)
    for run in run_set["runs"]:
        assert run["correct"] and run["ops"] >= 1
        # Only sim_churn (5% drop, churn, crashes) may lose a lookup.
        assert run["failed"] == 0 or run["workload"] == "sim_churn"
        assert all(run["metrics"][m["name"]] > 0 for m in SPEC["end_to_end"])
        assert set(run["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    assert "all checks passed" in stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_single_workload_ends_with_the_result_line(trace):
    stdout = run_bench(
        "--workload", "wire_lookup", "--seed", "7", "--seconds", "0.8",
        "--trace", str(trace),
    )
    result = json.loads(stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_tracing_restores_what_it_shadowed(tmp_path):
    def modelled(trace):
        measurement = workloads.run_workload(
            "sim_paper", 42, 4.0, scale=0.1, trace=trace, out_dir=str(tmp_path)
        )
        assert all(check[1] for check in measurement.checks)
        return measurement

    recorder = spans.Recorder()
    spans.install(recorder)
    shadowed = recorder.shadowed
    assert shadowed
    assert all(owner.__dict__[attr] is not raw for owner, attr, raw in shadowed)
    recorder.restore()
    assert all(owner.__dict__[attr] is raw for owner, attr, raw in shadowed)

    before = modelled(False)
    traced = modelled(True)
    after = modelled(False)
    assert before.modelled == traced.modelled == after.modelled
    assert traced.span_count > 0 and traced.layer_tables
    shares = sum(row["share"] for row in traced.layer_tables[0]["rows"])
    assert shares == pytest.approx(1.0)
    assert all(owner.__dict__[attr] is raw for owner, attr, raw in shadowed)
    assert (tmp_path / "trace-sim_paper.jsonl").exists()


def synthetic_set(worse=1.0):
    """Five runs of one workload 0.6% apart, every metric ``worse``
    times worse than in ``synthetic_set()``."""
    runs = []
    for index in range(5):
        wobble = 1.0 + 0.002 * (index - 2)
        metrics = {
            metric["name"]: 10.0 * wobble * worse
            if metric["better"] == "lower"
            else 10.0 * wobble / worse
            for metric in SPEC["end_to_end"]
        }
        metrics["failed_share"] = 0.0
        metrics["response_p95_vms"] = 0.0
        runs.append(
            {"workload": "wire_lookup", "seed": 42, "metrics": metrics,
             "ops": 100, "failed": 0, "modelled": {}, "correct": True}
        )
    return {"meta": {}, "runs": runs}


def test_compare_flags_a_slowdown_beyond_the_bound_and_passes_2_percent():
    base = synthetic_set()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

    rows, regressed = compare.compare(base, synthetic_set(1.02), SPEC)
    assert not regressed
    assert {row[-1] for row in rows} == {"ok"}

    # A 20% slowdown: a regression wherever the bound is tighter than
    # the change (a rate 20% slower reads 1 - 1/1.2 = 16.7% lower).  The
    # timing bounds are 25% -- consecutive run sets on the reference box
    # differ by up to 20% -- so there it takes a 40% slowdown.
    rows, regressed = compare.compare(base, synthetic_set(1.20), SPEC)
    assert regressed
    verdicts = {row[1]: row[-1] for row in rows}
    for name, bound in bounds.items():
        assert verdicts[name] == ("regressed" if bound < 0.16 else "ok"), name

    rows, regressed = compare.compare(base, synthetic_set(1.40), SPEC)
    assert regressed
    verdicts = {row[1]: row[-1] for row in rows}
    assert verdicts["lookups_per_s"] == verdicts["lookup_p50_ms"] == "regressed"
    assert all(verdicts[name] == "regressed" for name in bounds)

    noisy = copy.deepcopy(base)
    for index, run in enumerate(noisy["runs"]):
        run["metrics"]["lookup_p50_ms"] *= 1.0 + 0.6 * (index % 2)
    rows, _ = compare.compare(base, noisy, SPEC)
    assert {row[1]: row[-1] for row in rows}["lookup_p50_ms"] == "unresolved"

    failing = copy.deepcopy(base)
    for run in failing["runs"]:
        run["metrics"]["failed_share"] = 0.01
    rows, regressed = compare.compare(base, failing, SPEC)
    assert regressed
