"""Soak tier: sustained multi-stage load against a live cluster.

Excluded from tier 1 (``addopts = -m 'not soak'``); run explicitly with
``python -m pytest -m soak``.  The contract under minutes of sustained
open-loop load: every scheduled operation is acknowledged exactly once
(zero lost, zero duplicated), the error rate stays bounded, and the
latency sketches stay constant-memory.
"""

import pytest

from repro.loadgen.runner import LoadTestConfig, run_load_test

pytestmark = pytest.mark.soak


class TestSustainedRamp:
    def test_multi_stage_soak_exactly_once_and_bounded_errors(self):
        config = LoadTestConfig(
            num_nodes=5,
            workers=2,
            ramp=(40.0, 80.0, 120.0, 120.0),
            stage_seconds=15.0,
            num_base_records=30,
            store_pool_size=400,
            processes=True,
            drain_timeout_s=30.0,
        )
        report = run_load_test(config)
        assert len(report.stages) == 4
        total_scheduled = 0
        for summary in report.stages:
            total_scheduled += summary.scheduled
            # Exactly-once acknowledgement accounting.
            assert summary.duplicates == 0
            assert summary.lost == 0
            assert summary.completed == summary.scheduled
            # Bounded failures under sustained load.
            assert summary.error_rate < 0.02
            # The sketch stays constant-memory however long we soak.
            assert summary.p99_ms > 0.0
        assert total_scheduled > 3000
        for sketch in report.sketches:
            assert len(sketch.to_state()["buckets"]) < 600

    def test_repeated_stage_rate_stays_stable(self):
        """Back-to-back stages at one rate should not degrade (no leak)."""
        config = LoadTestConfig(
            num_nodes=3,
            workers=2,
            ramp=(60.0, 60.0, 60.0),
            stage_seconds=10.0,
            num_base_records=20,
            store_pool_size=300,
            processes=True,
            drain_timeout_s=20.0,
        )
        report = run_load_test(config)
        goodputs = [summary.goodput_hz for summary in report.stages]
        p95s = [summary.p95_ms for summary in report.stages]
        assert min(goodputs) > 0.8 * max(goodputs)
        # Latency in the last plateau stage within 3x of the first --
        # a leak or unbounded queue would blow far past this.
        assert p95s[-1] < 3.0 * p95s[0] + 5.0
