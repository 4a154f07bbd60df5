"""Unit tests for the experiment result record."""

import pytest

from repro.sim.metrics import ExperimentResult


def make(**overrides):
    base = dict(
        scheme="simple",
        cache="none",
        substrate="ideal",
        num_nodes=10,
        num_articles=100,
        num_queries=1000,
    )
    result = ExperimentResult(**base)
    for key, value in overrides.items():
        setattr(result, key, value)
    return result


class TestDerived:
    def test_busiest_node_share(self):
        result = make(node_query_percentages=[9.5, 4.0, 1.0])
        assert result.busiest_node_share == pytest.approx(0.095)

    def test_busiest_empty(self):
        assert make().busiest_node_share == 0.0

    def test_total_bytes(self):
        result = make(normal_bytes_per_query=100.0, cache_bytes_per_query=20.0)
        assert result.total_bytes_per_query == 120.0

    def test_label(self):
        assert make().label() == "simple/none/ideal"


class TestResponseTimeRows:
    def test_rows_report_kernel_fields(self):
        result = make(
            concurrency=16,
            latency_model="uniform:10:100",
            response_time_ms_p50=120.0,
            response_time_ms_p95=340.5,
            response_time_ms_p99=510.0,
            response_time_ms_mean=150.25,
            virtual_time_ms=9_876.0,
        )
        rows = dict((label, value) for label, value in result.response_time_rows())
        assert rows["concurrency"] == 16
        assert rows["latency model"] == "uniform:10:100"
        assert rows["response time p50"] == "120.0 ms"
        assert rows["response time p95"] == "340.5 ms"
        assert rows["response time p99"] == "510.0 ms"
        assert rows["virtual makespan"] == "9,876.0 ms"

    def test_sequential_defaults(self):
        result = make()
        assert result.concurrency == 1
        assert result.latency_model == "zero"
        assert result.response_time_ms_p99 == 0.0
        assert result.virtual_time_ms == 0.0


class TestValidation:
    def test_valid(self):
        make(searches=10, found=10).validate()

    def test_found_exceeds_searches(self):
        with pytest.raises(ValueError):
            make(searches=1, found=2).validate()

    def test_cache_activity_without_policy(self):
        with pytest.raises(ValueError):
            make(cache_hits=1).validate()

    def test_hit_ratio_bounds(self):
        with pytest.raises(ValueError):
            make(cache="single", hit_ratio=1.5).validate()
