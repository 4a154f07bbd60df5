"""Unit tests for the command-line experiment runner."""

import pytest

from repro.sim.__main__ import build_parser, config_from_args, main


def parse(argv):
    return config_from_args(build_parser().parse_args(argv))


class TestArgumentParsing:
    def test_defaults_are_paper_setup(self):
        config = parse([])
        assert config.scheme == "simple"
        assert config.cache == "none"
        assert config.num_nodes == 500

    def test_scheme_and_cache(self):
        config = parse(["--scheme", "flat", "--cache", "lru20"])
        assert config.scheme == "flat"
        assert config.cache == "lru20"

    def test_scale(self):
        config = parse(["--scale", "0.1"])
        assert config.num_nodes == 50
        assert config.num_articles == 1_000
        assert config.num_queries == 5_000

    def test_overrides_after_scale(self):
        config = parse(["--scale", "0.1", "--queries", "123"])
        assert config.num_queries == 123
        assert config.num_nodes == 50

    def test_substrate(self):
        assert parse(["--substrate", "pastry"]).substrate == "pastry"

    def test_invalid_cache_rejected(self):
        with pytest.raises(ValueError):
            parse(["--cache", "bogus"])

    def test_invalid_scale_rejected(self):
        with pytest.raises(SystemExit):
            parse(["--scale", "-1"])

    def test_invalid_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--scheme", "bogus"])

    def test_shortcut_top_n(self):
        assert parse(["--shortcut-top-n", "25"]).shortcut_top_n == 25

    @pytest.mark.parametrize(
        "flags",
        [
            # -1 installed deep links for every article but one
            ["--shortcut-top-n", "-1"],
            # silently ran no churn
            ["--churn-events", "-2"],
            # the rest crashed in the kernel after the whole populate, or
            # (arrival nan) silently ran closed loop
            ["--latency-model", "constant:nan"],
            ["--latency-model", "constant:inf"],
            ["--latency-model", "uniform:1:inf"],
            ["--latency-model", "uniform:nan:5"],
            ["--latency-ms", "nan"],
            ["--latency-ms", "inf"],
            ["--arrival-interval-ms", "inf"],
            ["--arrival-interval-ms", "nan"],
        ],
    )
    def test_out_of_range_input_rejected_before_the_run(self, flags):
        with pytest.raises(ValueError):
            parse(["--preset", "smoke", *flags])


class TestPresetAndChaosFlags:
    def test_churn_preset_loads(self):
        from repro.sim.presets import CHURN_CONFIG

        assert parse(["--preset", "churn"]) == CHURN_CONFIG

    def test_preset_fields_survive_unrelated_flags(self):
        # Flags left at their defaults must not clobber preset values.
        config = parse(["--preset", "churn", "--queries", "1000"])
        assert config.cache == "single"          # from the preset
        assert config.replication == 3           # from the preset
        assert config.churn_mode == "poisson"    # from the preset
        assert config.num_queries == 1000        # the explicit override

    def test_preset_scales(self):
        config = parse(["--preset", "churn", "--scale", "0.1"])
        assert config.num_nodes == 50
        assert config.fault_drop_probability == 0.05

    def test_chaos_flags(self):
        config = parse(
            [
                "--drop-probability", "0.1",
                "--duplicate-probability", "0.02",
                "--latency-ms", "3",
                "--churn-events", "7",
                "--churn-mode", "poisson",
                "--crash-events", "2",
                "--crash-downtime", "150",
                "--churn-seed", "11",
            ]
        )
        assert config.fault_drop_probability == 0.1
        assert config.fault_duplicate_probability == 0.02
        assert config.fault_latency_ms == 3.0
        assert config.churn_events == 7
        assert config.churn_mode == "poisson"
        assert config.crash_events == 2
        assert config.crash_downtime_queries == 150
        assert config.churn_seed == 11
        assert config.has_chaos

    def test_no_chaos_by_default(self):
        assert not parse([]).has_chaos

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            parse(["--drop-probability", "1.5"])


class TestKernelFlags:
    def test_kernel_flags(self):
        config = parse(
            [
                "--concurrency", "16",
                "--latency-model", "uniform:10:100",
                "--arrival-interval-ms", "5",
            ]
        )
        assert config.concurrency == 16
        assert config.latency_model == "uniform:10:100"
        assert config.arrival_interval_ms == 5.0
        assert config.uses_kernel

    def test_sequential_by_default(self):
        config = parse([])
        assert config.concurrency == 1
        assert config.latency_model == "zero"
        assert not config.uses_kernel

    def test_concurrent_preset_loads(self):
        from repro.sim.presets import CONCURRENT_CONFIG

        config = parse(["--preset", "concurrent"])
        assert config == CONCURRENT_CONFIG
        assert config.concurrency == 16
        assert config.uses_kernel

    def test_invalid_latency_model_rejected(self):
        with pytest.raises(ValueError):
            parse(["--latency-model", "bogus"])

    def test_invalid_concurrency_rejected(self):
        with pytest.raises(ValueError):
            parse(["--concurrency", "0"])


class TestMain:
    def test_runs_tiny_experiment(self, capsys):
        code = main(
            [
                "--scale", "0.01",
                "--cache", "single",
                "--queries", "300",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "interactions / query" in output
        assert "cache hit ratio" in output

    def test_bad_cache_exits_nonzero(self, capsys):
        code = main(["--cache", "bogus", "--scale", "0.01"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_chaos_run_prints_availability_table(self, capsys):
        code = main(
            [
                "--scale", "0.01",
                "--queries", "300",
                "--replication", "3",
                "--drop-probability", "0.05",
                "--churn-events", "2",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "availability under faults" in output
        assert "lookup success rate" in output

    def test_reliable_run_omits_availability_table(self, capsys):
        code = main(["--scale", "0.01", "--queries", "200"])
        assert code == 0
        assert "availability under faults" not in capsys.readouterr().out

    def test_concurrent_run_prints_response_times(self, capsys):
        code = main(
            [
                "--scale", "0.01",
                "--queries", "200",
                "--concurrency", "4",
                "--latency-model", "constant:20",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "response time p50 / p95 / p99" in output
        assert "virtual-time kernel" in output
        assert "virtual makespan" in output

    def test_sequential_run_omits_response_times(self, capsys):
        code = main(["--scale", "0.01", "--queries", "200"])
        assert code == 0
        output = capsys.readouterr().out
        assert "response time" not in output
        assert "virtual-time kernel" not in output


class TestTraceFlag:
    def test_trace_out_enables_tracing(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert parse(["--trace-out", str(path)]).trace is True

    def test_tracing_off_by_default(self):
        assert parse([]).trace is False

    def test_preset_trace_survives_without_flag(self):
        # --trace-out absent must leave a preset's trace field alone.
        assert parse(["--preset", "churn"]).trace is False

    @pytest.mark.parametrize(
        "preset", ["adversarial-smoke", "range-queries", "range-queries-smoke"]
    )
    def test_comparison_preset_refuses_trace_out(self, preset, tmp_path, capsys):
        # A comparison runs its cells without writing a trace: the flag
        # is a usage error, not silently dropped.
        path = tmp_path / "x.jsonl"
        code = main(["--preset", preset, "--scale", "0.2", "--trace-out", str(path)])
        assert code == 2
        assert preset in capsys.readouterr().err
        assert not path.exists()

    def test_main_writes_trace_file(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        code = main(
            [
                "--scale", "0.01",
                "--cache", "single",
                "--queries", "200",
                "--trace-out", str(path),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "events written to" in output
        assert path.exists()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert '"kind":"trace_header"' in lines[0]
        assert sum('"kind":"lookup_end"' in line for line in lines) == 200

    def test_cli_round_trip_through_summarize(self, tmp_path, capsys):
        """python -m repro.sim --trace-out then python -m repro.obs
        summarize: the acceptance round trip of the trace format."""
        from repro.obs.__main__ import main as obs_main

        path = tmp_path / "round.jsonl"
        assert main(
            [
                "--scale", "0.01",
                "--queries", "200",
                "--concurrency", "4",
                "--latency-model", "constant:20",
                "--trace-out", str(path),
            ]
        ) == 0
        capsys.readouterr()
        assert obs_main(["summarize", str(path)]) == 0
        report = capsys.readouterr().out
        assert "lookup outcomes" in report
        assert "200 lookups" in report


class TestAdversarialFlags:
    def test_adversarial_preset_loads(self):
        from repro.sim.presets import ADVERSARIAL_CONFIG

        assert parse(["--preset", "adversarial"]) == ADVERSARIAL_CONFIG

    def test_adversary_flags_build_a_cell(self):
        config = parse(
            [
                "--poisoners", "3",
                "--liars", "2",
                "--sybil-joins", "4",
                "--eclipse-victims", "1",
                "--eclipse-drop", "0.8",
                "--verify-signatures",
            ]
        )
        assert config.adversary_poisoners == 3
        assert config.adversary_liars == 2
        assert config.adversary_sybil_joins == 4
        assert config.adversary_eclipse_victims == 1
        assert config.adversary_eclipse_drop == 0.8
        assert config.verify_signatures is True
        assert config.has_adversary

    def test_preset_adversary_survives_overrides(self):
        config = parse(["--preset", "adversarial-smoke", "--queries", "500"])
        assert config.adversary_poisoners == 6
        assert config.num_queries == 500

    def test_benign_by_default(self):
        config = parse([])
        assert not config.has_adversary
        assert config.verify_signatures is False

    def test_sec_comparison_runs_and_appends_bench(self, tmp_path, capsys):
        import json

        bench = tmp_path / "BENCH_sec.json"
        code = main(
            [
                "--preset", "adversarial-smoke",
                "--nodes", "30",
                "--articles", "200",
                "--queries", "400",
                "--authors", "80",
                "--bench-out", str(bench),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "verification off" in output
        assert "verification on" in output
        trajectory = json.loads(bench.read_text())
        record = trajectory[-1]
        assert record["preset"] == "adversarial-smoke"
        off = record["cells"]["verify-off"]
        on = record["cells"]["verify-on"]
        assert off["poisoned_results"] > 0
        assert on["poisoned_results"] == 0
        assert on["success_rate"] > off["success_rate"]
