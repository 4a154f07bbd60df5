"""Unit tests for the capacity model: knee detection and reporting."""

import json

from repro.loadgen.report import (
    StageSummary,
    append_bench_record,
    detect_knee,
    format_capacity_report,
)
from repro.loadgen.runner import LoadTestConfig


def stage(index, offered, completed, *, p95=10.0, errors=0, duration=5.0,
          scheduled=None):
    if scheduled is None:
        scheduled = int(offered * duration)
    return StageSummary(
        stage=index,
        offered_hz=offered,
        duration_s=duration,
        scheduled=scheduled,
        completed=completed,
        stores=completed // 4,
        retrieves=completed - completed // 4,
        not_found=errors,
        gave_up=0,
        delivery_errors=0,
        lost=scheduled - completed,
        duplicates=0,
        p50_ms=p95 / 3,
        p95_ms=p95,
        p99_ms=p95 * 1.5,
        mean_ms=p95 / 2,
        digest="d" * 16,
    )


class TestDetectKnee:
    def test_healthy_ramp_has_no_knee(self):
        stages = [
            stage(0, 50, 250),
            stage(1, 100, 500),
            stage(2, 200, 1000),
        ]
        assert detect_knee(stages) is None

    def test_goodput_flattening_with_latency_inflection(self):
        stages = [
            stage(0, 100, 500, p95=10.0),
            stage(1, 200, 1000, p95=12.0),
            # Offered +200/s but goodput only +10/s, p95 blows up 5x.
            stage(2, 400, 1050, p95=60.0),
        ]
        knee = detect_knee(stages)
        assert knee is not None
        assert knee.stage == 2
        assert knee.offered_hz == 400
        assert "p95 inflected" in knee.reason

    def test_goodput_flattening_with_error_shedding(self):
        stages = [
            stage(0, 100, 500, p95=10.0),
            # Flat goodput, stable latency, but the cluster sheds 20%.
            stage(1, 200, 520, p95=11.0, errors=200),
        ]
        knee = detect_knee(stages)
        assert knee is not None
        assert knee.stage == 1
        assert "error rate" in knee.reason

    def test_flat_goodput_without_symptoms_is_not_a_knee(self):
        # Goodput flattens but latency and errors are unremarkable --
        # e.g. the generator itself was the bottleneck and dispatched
        # fewer operations than the nominal offer.  Not a verdict.
        stages = [
            stage(0, 100, 500, p95=10.0),
            stage(1, 200, 520, p95=11.0, scheduled=520),
        ]
        assert detect_knee(stages) is None

    def test_non_increasing_offered_stage_skipped(self):
        stages = [
            stage(0, 100, 500, p95=10.0),
            stage(1, 100, 480, p95=50.0),
        ]
        assert detect_knee(stages) is None

    def test_latency_inflection_alone_without_flattening_is_fine(self):
        # Latency grew 3x but every added request is being served.
        stages = [
            stage(0, 100, 500, p95=10.0),
            stage(1, 200, 1000, p95=30.0),
        ]
        assert detect_knee(stages) is None


class TestReporting:
    def test_format_includes_table_and_verdict(self):
        from repro.loadgen.report import CapacityReport

        stages = [
            stage(0, 100, 500, p95=10.0),
            stage(1, 200, 1010, p95=60.0),
            stage(2, 400, 1050, p95=220.0),
        ]
        report = CapacityReport(
            config={}, stages=stages, knee=detect_knee(stages), digest="abcd"
        )
        text = format_capacity_report(report)
        assert "offered/s" in text and "p95 ms" in text
        assert "knee at stage 2" in text
        assert "schedule digest abcd" in text

    def test_stage_summary_rates(self):
        summary = stage(0, 100, 450, errors=50, duration=5.0)
        assert summary.scheduled == 500
        assert summary.errors == 50 + summary.lost
        assert summary.throughput_hz == 90.0
        assert summary.goodput_hz == 80.0

    def test_append_bench_record_grows_history(self, tmp_path):
        path = str(tmp_path / "BENCH_rpc.json")
        append_bench_record(path, {"run": 1})
        append_bench_record(path, {"run": 2})
        with open(path) as handle:
            history = json.load(handle)
        assert history == [{"run": 1}, {"run": 2}]

    def test_append_recovers_from_corrupt_file(self, tmp_path):
        path = str(tmp_path / "BENCH_rpc.json")
        with open(path, "w") as handle:
            handle.write("{not json")
        append_bench_record(path, {"run": 1})
        with open(path) as handle:
            assert json.load(handle) == [{"run": 1}]


class TestConfigDescribe:
    def test_describe_carries_extra_meta(self):
        config = LoadTestConfig(extra_meta={"label": "ab-test"})
        echo = config.describe()
        assert echo["label"] == "ab-test"
        assert echo["ramp_hz"] == [50.0, 100.0, 200.0]
