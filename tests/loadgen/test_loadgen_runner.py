"""End-to-end runner tests against a small live cluster (thread mode)."""

import json

import pytest

from repro.loadgen.runner import (
    LoadTestConfig,
    merge_results,
    run_load_test,
    worker_configs,
)
from repro.loadgen.worker import StageOutcome, WorkerResult


def small_config(**overrides):
    options = dict(
        num_nodes=3,
        workers=2,
        ramp=(20.0, 40.0),
        stage_seconds=1.5,
        num_base_records=10,
        store_pool_size=40,
        processes=False,
        start_grace_s=0.5,
        drain_timeout_s=10.0,
    )
    options.update(overrides)
    return LoadTestConfig(**options)


@pytest.fixture(scope="module")
def small_run():
    """One real ramp shared by the assertions below (cluster boots once)."""
    return run_load_test(small_config())


class TestRunLoadTest:
    def test_every_stage_reported(self, small_run):
        assert [s.stage for s in small_run.stages] == [0, 1]
        assert [s.offered_hz for s in small_run.stages] == [20.0, 40.0]

    def test_exactly_once_accounting(self, small_run):
        for summary in small_run.stages:
            assert summary.scheduled > 0
            assert summary.duplicates == 0
            assert summary.lost == 0
            assert summary.completed == summary.scheduled

    def test_healthy_cluster_serves_cleanly(self, small_run):
        for summary in small_run.stages:
            assert summary.error_rate < 0.05
            assert summary.p95_ms > 0.0
            assert summary.stores > 0 and summary.retrieves > 0

    def test_digest_is_reproducible_without_rerunning(self, small_run):
        # The digest depends only on (seed, workers, ramp): recomputing
        # the schedules offline must reproduce the run's digest.
        from repro.loadgen.schedule import (
            combine_digests,
            schedule_digest,
            stage_schedule,
        )

        from repro.core.fields import ARTICLE_SCHEMA
        from repro.core.scheme import build_scheme

        config = small_config()
        entry_classes = len(
            build_scheme(config.scheme, ARTICLE_SCHEMA).entry_classes()
        )
        per_stage = []
        for stage_index, rate in enumerate(config.ramp):
            digests = [
                schedule_digest(
                    stage_schedule(
                        config.seed,
                        worker,
                        stage_index,
                        rate / config.workers,
                        config.stage_seconds,
                        store_fraction=config.store_fraction,
                        num_store_records=config.store_pool_size,
                        num_base_records=config.num_base_records,
                        num_entry_classes=entry_classes,
                    )
                )
                for worker in range(config.workers)
            ]
            per_stage.append(combine_digests(digests))
        assert combine_digests(per_stage) == small_run.digest

    def test_start_skew_is_honest_and_small(self, small_run):
        for summary in small_run.stages:
            assert 0.0 <= summary.max_start_skew_s < 1.0


class TestWorkerConfigs:
    def test_rates_split_evenly_and_offsets_stack(self):
        config = small_config(workers=4, ramp=(100.0, 200.0), stage_seconds=3.0)
        configs = worker_configs(config, ("127.0.0.1", 1), 123.0)
        assert len(configs) == 4
        for worker_config in configs:
            assert [plan.rate_hz for plan in worker_config.stages] == [
                25.0,
                50.0,
            ]
            assert [plan.offset_s for plan in worker_config.stages] == [
                0.0,
                3.0,
            ]
            assert worker_config.start_at == 123.0

    def test_validation(self):
        with pytest.raises(ValueError):
            worker_configs(small_config(workers=0), ("h", 1), 0.0)
        with pytest.raises(ValueError):
            worker_configs(small_config(ramp=()), ("h", 1), 0.0)


class TestMergeResults:
    def make_outcome(self, stage, values, **counts):
        from repro.analysis.stats import LogBucketQuantiles

        sketch = LogBucketQuantiles()
        for value in values:
            sketch.add(value)
        base = dict(
            scheduled=len(values),
            completed=len(values),
            stores=0,
            retrieves=len(values),
            digest="aa",
        )
        base.update(counts)
        return StageOutcome(stage=stage, sketch_state=sketch.to_state(), **base)

    def test_counts_and_sketches_fold_across_workers(self):
        config = small_config(workers=2, ramp=(10.0,), stage_seconds=2.0)
        results = [
            WorkerResult(0, [self.make_outcome(0, [1.0, 2.0, 3.0])]),
            WorkerResult(1, [self.make_outcome(0, [100.0], not_found=1)]),
        ]
        report = merge_results(config, results)
        summary = report.stages[0]
        assert summary.scheduled == 4
        assert summary.completed == 4
        assert summary.not_found == 1
        # p99 over {1,2,3,100} must see worker 1's contribution.
        assert summary.p99_ms == pytest.approx(100.0, rel=0.02)

    def test_worker_order_does_not_change_percentiles(self):
        config = small_config(workers=2, ramp=(10.0,))
        a = WorkerResult(0, [self.make_outcome(0, [1.0, 5.0, 9.0])])
        b = WorkerResult(1, [self.make_outcome(0, [2.0, 100.0])])
        forward = merge_results(config, [a, b])
        backward = merge_results(config, [b, a])
        assert forward.stages[0].p95_ms == backward.stages[0].p95_ms
        assert forward.digest == backward.digest


class TestCli:
    def test_cli_writes_bench_record(self, tmp_path):
        from repro.loadgen.__main__ import main

        out = str(tmp_path / "BENCH_rpc.json")
        status = main(
            [
                "--nodes", "3",
                "--workers", "1",
                "--ramp", "15,30",
                "--stage-seconds", "1",
                "--base-records", "8",
                "--threads",
                "--out", out,
                "--label", "cli-smoke",
            ]
        )
        assert status == 0
        with open(out) as handle:
            history = json.load(handle)
        assert len(history) == 1
        record = history[0]
        assert record["config"]["label"] == "cli-smoke"
        assert len(record["stages"]) == 2
        assert record["schedule_digest"]
        for stage in record["stages"]:
            assert stage["duplicates"] == 0
            assert stage["scheduled"] > 0

    def test_ramp_parsing_rejects_garbage(self):
        from repro.loadgen.__main__ import build_parser

        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["--ramp", "10,abc"])
        with pytest.raises(SystemExit):
            parser.parse_args(["--ramp", "-5"])

    @pytest.mark.parametrize("ramp", ["10,nan", "10,inf"])
    def test_ramp_parsing_rejects_non_finite_rates(self, ramp):
        # nan scheduled a silently empty stage; inf never finished
        # scheduling (expovariate(inf) is 0.0).
        from repro.loadgen.__main__ import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["--ramp", ramp])

    @pytest.mark.parametrize(
        "flags",
        [
            ["--drain-seconds", "-5"],
            ["--drain-seconds", "nan"],
            ["--request-timeout-ms", "nan"],
            ["--request-timeout-ms", "inf"],
            ["--base-records", "0"],
            ["--store-fraction", "2"],
            ["--nodes", "0"],
            ["--replication", "0"],
            ["--cache", "bogus"],
            ["--substrate", "bogus"],
        ],
    )
    def test_cli_rejects_inputs_it_cannot_run(self, flags, capsys):
        from repro.loadgen.__main__ import main

        tiny = ["--nodes", "1", "--threads", "--ramp", "5", "--stage-seconds", "0.2"]
        with pytest.raises(SystemExit) as exit_info:
            main([*tiny, "--out", "", *flags])
        assert exit_info.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestConfigBoundary:
    @pytest.mark.parametrize(
        "options",
        [
            {"ramp": (10.0, float("nan"))},
            {"ramp": (float("inf"),)},
            {"stage_seconds": 0.0},
            {"stage_seconds": float("inf")},
            {"drain_timeout_s": -5.0},
            {"request_timeout_ms": float("nan")},
            {"num_base_records": 0},
            {"workers": 0},
            {"store_fraction": 2.0},
            {"store_fraction": float("nan")},
            {"num_nodes": 0},
            {"replication": 0},
            {"cache": "bogus"},
            {"substrate": "bogus"},
            {"scheme": "bogus"},
        ],
    )
    def test_rejects_what_it_cannot_run(self, options):
        with pytest.raises(ValueError):
            LoadTestConfig(**options)
