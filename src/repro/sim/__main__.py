"""Command-line experiment runner: ``python -m repro.sim [options]``.

Runs one grid cell of the paper's evaluation and prints the measured
metrics, e.g.::

    python -m repro.sim --scheme flat --cache lru30 --queries 10000
    python -m repro.sim --substrate chord --nodes 200 --scale 0.2
    python -m repro.sim --preset churn --scale 0.1
    python -m repro.sim --concurrency 16 --latency-model uniform:10:100

``--scale`` proportionally shrinks the paper's full setup (500 nodes,
10,000 articles, 50,000 queries) for quick explorations.  ``--preset
churn`` runs the availability experiment -- seeded message loss, Poisson
join/leave churn, and transient crashes -- and the report then includes
the availability table (success rate, retries, failovers, repair cost).
``--concurrency`` / ``--latency-model`` switch the run onto the
virtual-time event kernel (overlapping lookups, real latency
accounting) and add p50/p95/p99 response times to the report; the
``concurrent`` preset combines that with the churn cell.  ``--preset
restart-chaos`` runs the durability matrix -- WAL-journaled nodes under
rolling process kills and power losses -- and the availability table
then gains recovered-entry counts, replay time, and the post-restart
lookup success rate (compare against ``--durability none``).
``--preset range-queries`` runs the predicate-query head-to-head: one
cell resolving prefix/wildcard/range queries through the trie-over-DHT
index, one through the paper's generalization/specialization fallback,
with a comparison table and an optional ``--bench-out`` JSON record.
``--preset adversarial`` runs the security head-to-head: the same
Byzantine population (index poisoners, lying routers, a Sybil flood,
eclipse sets) once with signature verification off -- the undefended
baseline, measuring the poisoned-result rate -- and once with signed
frames plus the trust ledger on, measuring recovery; ``--bench-out``
appends the comparison to a BENCH_sec.json trajectory file.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Optional, get_args, get_type_hints

from repro.analysis.tables import format_table
from repro.sim.experiment import Experiment, ExperimentConfig
from repro.sim.metrics import ExperimentResult
from repro.sim.presets import get_preset, preset_names


#: The one declaration of the CLI: per argparse group (None = the
#: ungrouped options), one row per settable ``ExperimentConfig`` field --
#: (field, flag, help[, metavar]).  Everything else follows from the
#: dataclass: ``dest`` is the field name, ``type`` its annotation,
#: ``choices`` come from ``ExperimentConfig.CHOICES`` (what
#: ``__post_init__`` validates against), a ``bool`` field is a
#: ``store_const True`` switch, and every default is None so that an
#: unset flag leaves the preset's value alone.
_FLAGS: tuple[tuple[Optional[str], tuple[tuple[str, ...], ...]], ...] = (
    (None, (
        ("scheme", "--scheme", None),
        ("cache", "--cache", "none | multi | single | lruK (e.g. lru30)"),
        ("substrate", "--substrate", None),
        ("num_nodes", "--nodes", None),
        ("num_articles", "--articles", None),
        ("num_queries", "--queries", None),
        ("num_authors", "--authors", None),
        ("bits", "--bits", None),
        ("replication", "--replication", None),
        ("corpus_seed", "--corpus-seed", None),
        ("query_seed", "--query-seed", None),
        ("shortcut_top_n", "--shortcut-top-n",
         "add permanent deep links for the N most popular articles"),
    )),
    ("virtual-time kernel", (
        ("concurrency", "--concurrency",
         "number of concurrent users (>1 runs on the event kernel)"),
        ("latency_model", "--latency-model",
         "zero | constant[:MS] | uniform[:LOW:HIGH] (virtual ms)"),
        ("arrival_interval_ms", "--arrival-interval-ms",
         "open-loop Poisson mean inter-arrival gap (0 = closed loop)"),
    )),
    ("failure model", (
        ("fault_drop_probability", "--drop-probability",
         "per-message loss probability (seeded, deterministic)"),
        ("churn_events", "--churn-events",
         "join/leave events over the feed (with incremental repair)"),
        ("churn_mode", "--churn-mode",
         "how churn events are placed over the feed"),
        ("crash_events", "--crash-events",
         "transient node crashes over the feed"),
        ("crash_downtime_queries", "--crash-downtime",
         "crash window length, in queries"),
        ("churn_seed", "--churn-seed",
         "seed of the single RNG driving churn, crashes, and faults"),
    )),
    ("durability / restart chaos", (
        ("restart_events", "--restart-events",
         "process kills (SIGKILL semantics) over the feed"),
        ("restart_downtime_queries", "--restart-downtime",
         "restart outage window length, in queries"),
        ("power_loss_events", "--power-loss-events",
         "additional kills that also tear the un-fsynced WAL tail"),
        ("durability", "--durability",
         "node-state persistence: in-memory only, or a per-node WAL"),
        ("fsync", "--fsync",
         "WAL sync policy: always | interval[:N] | never", "POLICY"),
        ("data_dir", "--data-dir",
         "root for the per-node journals (default: temporary dir)", "PATH"),
    )),
    ("predicate queries", (
        ("predicate_mix", "--predicate-mix",
         "fraction of queries loosened into prefix/wildcard/range"),
        ("index_structure", "--index-structure",
         "how predicate queries resolve: covering chains or trie"),
    )),
    ("adversarial model", (
        ("adversary_poisoners", "--poisoners",
         "nodes answering lookups with fabricated index entries"),
        ("adversary_liars", "--liars",
         "nodes forging shortcut referrals to nonexistent keys"),
        ("adversary_sybil_joins", "--sybil-joins",
         "adversary-controlled joins flooded in over the feed"),
        ("adversary_eclipse_victims", "--eclipse-victims",
         "honest nodes whose lookup traffic the adversary drops"),
        ("verify_signatures", "--verify-signatures",
         "switch the repro.sec defence on: forged responses are rejected "
         "and the trust ledger deprioritizes misbehaving replicas"),
    )),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim",
        description=(
            "Run one cell of the ICDCS'04 data-indexing evaluation grid."
        ),
    )
    hints = get_type_hints(ExperimentConfig)
    groups: dict[Optional[str], Any] = {}
    for title, rows in _FLAGS:
        groups[title] = parser.add_argument_group(title) if title else parser
        for name, flag, help_text, *metavar in rows:
            if hints[name] is bool:
                options: dict = {"action": "store_const", "const": True}
            else:
                choices = ExperimentConfig.CHOICES.get(name)
                # Help shows the flag's own name (--nodes NODES), or the
                # choices where there are any.
                shown = metavar[0] if metavar else flag[2:].replace("-", "_")
                options = {
                    # Optional[str] parses as its first member, str.
                    "type": (get_args(hints[name]) or (hints[name],))[0],
                    "choices": choices,
                    "metavar": None if choices else shown.upper(),
                }
            groups[title].add_argument(
                flag, dest=name, help=help_text, **options
            )
    # The four options that are not config fields.
    parser.add_argument(
        "--scale", type=float,
        help="shrink/grow the paper setup proportionally (e.g. 0.1)",
    )
    parser.add_argument(
        "--preset", choices=preset_names(),
        help="start from a named configuration (flags still override)",
    )
    groups["predicate queries"].add_argument(
        "--bench-out", metavar="PATH",
        help=(
            "append the range-queries comparison record to a "
            "BENCH_query.json trajectory file"
        ),
    )
    parser.add_argument_group("observability").add_argument(
        "--trace-out", metavar="PATH",
        help=(
            "record a per-lookup trace and export it as JSONL to PATH "
            "(analyze with `python -m repro.obs summarize PATH`)"
        ),
    )
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    config = get_preset(args.preset) if args.preset else ExperimentConfig()
    if args.scale is not None:
        if args.scale <= 0:
            raise SystemExit("--scale must be positive")
        config = config.scaled(args.scale)
    given = {
        spec.name: getattr(args, spec.name)
        for spec in fields(ExperimentConfig)
        if getattr(args, spec.name, None) is not None
    }
    if args.trace_out:
        if args.preset in _COMPARISONS:
            raise ValueError(f"--trace-out: the {args.preset} preset records no trace")
        given["trace"] = True
    return replace(config, **given)


def _cell_metrics(result: ExperimentResult) -> dict:
    """The comparison numbers of one range-queries cell."""
    return {
        "interactions_per_query": round(result.avg_interactions, 4),
        "found": result.found,
        "searches": result.searches,
        "predicate_queries": result.predicate_queries,
        "nonindexed_queries": result.nonindexed_queries,
        "error_interactions": result.total_error_interactions,
        "normal_bytes_per_query": round(result.normal_bytes_per_query, 1),
        "index_storage_bytes": result.index_storage_bytes,
        "trie_walks": result.perf_counters.get("trie_walks", 0),
        "engine_specializations": result.perf_counters.get(
            "engine_specializations", 0
        ),
    }


def _sec_cell_metrics(result: ExperimentResult) -> dict:
    """The comparison numbers of one adversarial cell."""
    return {
        "success_rate": round(result.success_rate, 4),
        "found": result.found,
        "searches": result.searches,
        "poisoned_results": result.poisoned_results,
        "poisoned_result_rate": round(result.poisoned_result_rate, 4),
        "forged_answers": result.forged_answers,
        "verify_failures": result.verify_failures,
        "contradictions": result.contradictions,
        "eclipse_drops": result.eclipse_drops,
        "adversarial_nodes": result.adversarial_nodes,
        "sybil_joins": result.sybil_joins,
        "eclipsed_nodes": result.eclipsed_nodes,
        "low_trust_peers": result.low_trust_peers,
        "lookups_gave_up": result.lookups_gave_up,
        "service_failovers": result.service_failovers,
        "retries_per_lookup": round(result.retries_per_lookup, 4),
    }


def _section(config: ExperimentConfig, *names: str, strip: str = "") -> dict:
    """The named config fields as one section of a benchmark record."""
    return {name.removeprefix(strip): getattr(config, name) for name in names}


@dataclass(frozen=True)
class _Comparison:
    """One head-to-head preset: two cells differing in one config field,
    a two-column table, and the record appended to a BENCH trajectory."""

    #: The config field the cells differ in, and (cell name, value) x 2.
    field: str
    cells: tuple[tuple[str, Any], ...]
    #: The workload detail of a cell's "running ..." progress line.
    progress: Callable[[ExperimentConfig], str]
    headers: tuple[str, str]
    title: Callable[[ExperimentConfig], str]
    #: Table rows: (label, one cell's value from its result).
    rows: tuple[tuple[str, Callable[[ExperimentResult], Any]], ...]
    #: The record's sections between "cache" and "cells", and the
    #: per-cell numbers.
    record: Callable[[ExperimentConfig], dict]
    metrics: Callable[[ExperimentResult], dict]


#: Trie index vs covering chains (``--preset range-queries``).
_QUERY_COMPARISON = _Comparison(
    field="index_structure",
    cells=(("trie", "trie"), ("chains", "chains")),
    progress=lambda config: (
        f"{config.num_nodes} nodes, "
        f"{config.num_articles:,} articles, "
        f"{config.num_queries:,} queries "
        f"({100 * config.predicate_mix:.0f}% predicate mix)"
    ),
    headers=("trie index", "covering chains"),
    title=lambda config: (
        f"{config.scheme} scheme, predicate_mix={config.predicate_mix}"
    ),
    rows=(
        ("interactions / query", lambda r: round(r.avg_interactions, 3)),
        ("lookups found", lambda r: f"{r.found}/{r.searches}"),
        ("predicate queries", lambda r: r.predicate_queries),
        ("queries hitting recoverable errors", lambda r: r.nonindexed_queries),
        ("wasted error interactions", lambda r: r.total_error_interactions),
        ("normal traffic / query",
         lambda r: f"{r.normal_bytes_per_query:,.0f} B"),
        ("index storage", lambda r: f"{r.index_storage_bytes:,} B"),
        ("trie walks", lambda r: r.perf_counters.get("trie_walks", 0)),
        ("specialization fallbacks",
         lambda r: r.perf_counters.get("engine_specializations", 0)),
        ("runtime", lambda r: f"{r.runtime_seconds:.1f} s"),
    ),
    record=lambda config: {
        "workload": _section(
            config, "num_nodes", "num_articles", "num_queries",
            "num_authors", "predicate_mix", "corpus_seed", "query_seed",
        ),
    },
    metrics=_cell_metrics,
)

#: Verification off vs on (``--preset adversarial``).  Same seeds, same
#: Byzantine population (recruitment draws from the chaos RNG before
#: any fault draw) -- the only difference between the cells is the
#: repro.sec defence.
_SEC_COMPARISON = _Comparison(
    field="verify_signatures",
    cells=(("verify-off", False), ("verify-on", True)),
    progress=lambda config: (
        f"{config.num_nodes} nodes, "
        f"{config.adversary_poisoners} poisoners, "
        f"{config.adversary_liars} liars, "
        f"{config.adversary_sybil_joins} sybil joins, "
        f"{config.adversary_eclipse_victims} eclipsed, "
        f"{config.num_queries:,} queries"
    ),
    headers=("verification off", "verification on"),
    title=lambda config: (
        f"{config.scheme} scheme under attack, "
        f"{config.num_nodes} nodes, churn_seed={config.churn_seed}"
    ),
    rows=(
        ("lookup success rate", lambda r: f"{100 * r.success_rate:.2f}%"),
        ("poisoned file results",
         lambda r: (
             f"{r.poisoned_results} ({100 * r.poisoned_result_rate:.2f}%)"
         )),
        ("forged index answers delivered", lambda r: r.forged_answers),
        ("forgeries caught by verification", lambda r: r.verify_failures),
        ("withheld answers contradicted", lambda r: r.contradictions),
        ("lookups eaten by eclipse sets", lambda r: r.eclipse_drops),
        ("adversarial nodes (of which Sybils)",
         lambda r: f"{r.adversarial_nodes} ({r.sybil_joins})"),
        ("peers below trust threshold", lambda r: r.low_trust_peers),
        ("replica failovers (service)", lambda r: r.service_failovers),
        ("retries / lookup", lambda r: round(r.retries_per_lookup, 4)),
        ("lookups that gave up", lambda r: r.lookups_gave_up),
        ("runtime", lambda r: f"{r.runtime_seconds:.1f} s"),
    ),
    record=lambda config: {
        "workload": _section(
            config, "num_nodes", "num_articles", "num_queries",
            "num_authors", "replication", "fault_drop_probability",
            "corpus_seed", "query_seed", "churn_seed",
        ),
        "adversary": _section(
            config, "adversary_poisoners", "adversary_liars",
            "adversary_sybil_joins", "adversary_eclipse_victims",
            strip="adversary_",
        ),
    },
    metrics=_sec_cell_metrics,
)

#: Presets that run as a two-cell comparison instead of one cell.
_COMPARISONS = {
    "range-queries": _QUERY_COMPARISON,
    "range-queries-smoke": _QUERY_COMPARISON,
    "adversarial": _SEC_COMPARISON,
    "adversarial-smoke": _SEC_COMPARISON,
}


def run_comparison(
    config: ExperimentConfig, bench_out: str | None, preset: str
) -> int:
    """Run a comparison preset's two cells head-to-head and report."""
    comparison = _COMPARISONS[preset]
    cells: dict[str, ExperimentResult] = {}
    for name, value in comparison.cells:
        cell_config = replace(config, **{comparison.field: value})
        print(
            f"running {preset} [{name}]: "
            f"{comparison.progress(cell_config)} ...",
            flush=True,
        )
        cells[name] = Experiment(cell_config).run()
    print(format_table(
        ["metric", *comparison.headers],
        [
            [label, *(value(result) for result in cells.values())]
            for label, value in comparison.rows
        ],
        title=comparison.title(config),
    ))
    if bench_out:
        record = {
            "preset": preset,
            "scheme": config.scheme,
            "cache": config.cache,
            **comparison.record(config),
            "cells": {
                name: comparison.metrics(result)
                for name, result in cells.items()
            },
        }
        try:
            with open(bench_out) as handle:
                trajectory = json.load(handle)
        except (OSError, ValueError):
            trajectory = []
        trajectory.append(record)
        with open(bench_out, "w") as handle:
            json.dump(trajectory, handle, indent=2)
            handle.write("\n")
        print(f"benchmark record appended to {bench_out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.preset in _COMPARISONS:
        return run_comparison(config, args.bench_out, args.preset)
    print(
        f"running {config.scheme}/{config.cache} over {config.substrate}: "
        f"{config.num_nodes} nodes, {config.num_articles:,} articles, "
        f"{config.num_queries:,} queries ...",
        flush=True,
    )
    experiment = Experiment(config)
    result = experiment.run()
    if args.trace_out:
        events = experiment.write_trace(args.trace_out)
        print(f"trace: {events:,} events written to {args.trace_out}")
    rows = [
        ["interactions / query", round(result.avg_interactions, 3)],
        ["normal traffic / query", f"{result.normal_bytes_per_query:,.0f} B"],
        ["cache traffic / query", f"{result.cache_bytes_per_query:,.0f} B"],
        ["cache hit ratio", f"{100 * result.hit_ratio:.1f}%"],
        ["first-contact share of hits",
         f"{100 * result.first_contact_hit_share:.1f}%"],
        ["queries to non-indexed data", result.nonindexed_queries],
        ["cached keys / node (avg, max)",
         f"{result.avg_cached_keys_per_node:.1f}, {result.max_cached_keys}"],
        ["regular keys / node", round(result.avg_index_keys_per_node, 1)],
        ["index storage", f"{result.index_storage_bytes / 1e6:.2f} MB"],
        ["busiest node", f"{100 * result.busiest_node_share:.2f}% of queries"],
        ["DHT hops / key", round(result.avg_dht_hops, 2)],
        ["runtime", f"{result.runtime_seconds:.1f} s"],
    ]
    if config.uses_kernel:
        events = result.perf_counters.get("kernel_events_run", 0)
        rows[-1:-1] = [
            ["response time p50 / p95 / p99",
             f"{result.response_time_ms_p50:,.1f} / "
             f"{result.response_time_ms_p95:,.1f} / "
             f"{result.response_time_ms_p99:,.1f} ms"],
            ["kernel events",
             f"{events:,} "
             f"({events / max(result.runtime_seconds, 1e-9):,.0f}/s)"],
        ]
    print(format_table(["metric", "value"], rows, title=result.label()))
    if config.uses_kernel:
        print(format_table(
            ["response-time metric", "value"],
            result.response_time_rows(),
            title="virtual-time kernel",
        ))
    if config.has_chaos:
        print(format_table(
            ["availability metric", "value"],
            result.availability_rows(),
            title="availability under faults",
        ))
    perf = result.perf_counters
    if perf:
        perf_rows = [
            ["xpath parses", f"{perf.get('xpath_parses', 0):,}"],
            ["query-text parses", f"{perf.get('field_parse_calls', 0):,} "
             f"({100 * result.perf_hit_rate('field_parse'):.1f}% cached)"],
        ]
        print(format_table(["hot-path operation", "count"], perf_rows,
                           title="perf counters"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
