"""The simulator CLI is derived from ``ExperimentConfig``: one flag per
field, the flag strings frozen, every flag reaching its field, and every
field set by a preset or a CI form."""

import argparse
import pathlib
from dataclasses import fields

import pytest

from repro.sim.__main__ import _FLAGS, build_parser, config_from_args
from repro.sim.experiment import ExperimentConfig
from repro.sim.presets import get_preset, preset_names
from tests.reachability import SIM, entry_points

#: The option strings of the hand-written parser this one replaced.
FROZEN_FLAGS = [
    "--scheme", "--cache", "--substrate", "--nodes", "--articles",
    "--queries", "--authors", "--bits", "--replication", "--corpus-seed",
    "--query-seed", "--scale", "--shortcut-top-n", "--preset",
    "--concurrency", "--latency-model", "--arrival-interval-ms",
    "--drop-probability", "--churn-events", "--churn-mode", "--crash-events",
    "--crash-downtime", "--churn-seed", "--restart-events", "--restart-downtime",
    "--power-loss-events", "--durability", "--fsync", "--data-dir",
    "--predicate-mix", "--index-structure", "--bench-out", "--poisoners",
    "--liars", "--sybil-joins", "--eclipse-victims",
    "--verify-signatures", "--trace-out",
]

#: Options that are not config fields (``--trace-out`` sets ``trace``).
RUNNER_FLAGS = {"--scale", "--preset", "--bench-out", "--trace-out"}

#: A value different from the default for every non-integer field the
#: CLI can set (an integer field gets its default plus three).
NON_DEFAULT = {
    "scheme": "flat",
    "cache": "lru30",
    "substrate": "chord",
    "latency_model": "constant:5",
    "churn_mode": "poisson",
    "durability": "wal",
    "fsync": "always",
    "data_dir": "/tmp/journals",
    "index_structure": "trie",
    "predicate_mix": 0.5,
    "arrival_interval_ms": 2.5,
    "fault_drop_probability": 0.1,
}

#: The fields that may keep their default in every preset and CI form:
#: a path and the two run seeds.
DEFAULT_ONLY = {"data_dir", "corpus_seed", "query_seed"}


def field_actions():
    """flag-defining actions of the parser, minus -h and the runner's."""
    return [
        action
        for action in build_parser()._actions
        if action.option_strings
        and not isinstance(action, argparse._HelpAction)
        and not RUNNER_FLAGS & set(action.option_strings)
    ]


def test_option_strings_are_the_frozen_38():
    strings = [
        flag
        for action in build_parser()._actions
        if not isinstance(action, argparse._HelpAction)
        for flag in action.option_strings
    ]
    assert len(strings) == len(set(strings)) == 38
    assert sorted(strings) == sorted(FROZEN_FLAGS)


def test_every_field_but_trace_has_exactly_one_flag():
    dests = [action.dest for action in field_actions()]
    assert sorted(dests) == sorted(
        spec.name for spec in fields(ExperimentConfig) if spec.name != "trace"
    )
    assert all(len(action.option_strings) == 1 for action in field_actions())
    # Nothing is set unless asked for: a preset's values survive.
    assert all(action.default is None for action in field_actions())


@pytest.mark.parametrize(
    "action", field_actions(), ids=lambda action: action.option_strings[0]
)
def test_flag_round_trips_a_non_default_value(action):
    default = getattr(ExperimentConfig(), action.dest)
    if isinstance(default, bool):
        value, argv = True, [action.option_strings[0]]
    else:
        value = NON_DEFAULT[action.dest] if action.dest in NON_DEFAULT else default + 3
        argv = [action.option_strings[0], str(value)]
    assert value != default
    config = config_from_args(build_parser().parse_args(argv))
    assert getattr(config, action.dest) == value
    assert type(getattr(config, action.dest)) is type(value)
    # ... and nothing else moved.
    others = {
        spec.name: getattr(config, spec.name)
        for spec in fields(ExperimentConfig)
        if spec.name != action.dest
    }
    assert others == {
        name: getattr(ExperimentConfig(), name) for name in others
    }


def test_trace_out_sets_trace():
    args = build_parser().parse_args(["--trace-out", "trace.jsonl"])
    assert config_from_args(args).trace is True
    assert config_from_args(build_parser().parse_args([])).trace is False


def configs_in_use():
    """Every registered preset, and the config of every ``repro.sim``
    CI form in ``tests/reachability.py``."""
    configs = [get_preset(name) for name in preset_names()]
    for argv in entry_points(pathlib.Path("ci")):
        if argv[: len(SIM)] == SIM:
            args = build_parser().parse_args(argv[len(SIM):])
            configs.append(config_from_args(args))
    return configs


def test_every_flag_is_set_by_a_preset_or_a_ci_form():
    default = ExperimentConfig()
    flagged = {name for _, rows in _FLAGS for name, *_ in rows}
    used = {
        name
        for config in configs_in_use()
        for name in flagged
        if getattr(config, name) != getattr(default, name)
    }
    assert sorted(flagged - used - DEFAULT_ONLY) == [], "never leaves its default"
    assert sorted(DEFAULT_ONLY & used) == [], "stale exemption"
    assert DEFAULT_ONLY <= flagged
