"""Micro-benchmarks of the hot operations.

Unlike the figure benches (one-shot reproductions), these time the core
primitives over many rounds: record insertion (index construction),
query resolution at a node, the end-to-end search, canonical keys and
their decoding, entry selection, repair, and substrate lookups.
They guard the simulator's performance envelope -- the full evaluation
feeds 50,000 queries through these paths.

Each run also dumps ``benchmarks/results/micro_operations.json``: the
per-operation timings plus the :mod:`repro.perf` counter totals and
cache hit rates accumulated while benchmarking, so the perf trajectory
of the hot path is machine-readable from PR to PR.
"""

import dataclasses
import itertools
import json
import pathlib

import pytest

from repro import perf
from repro.core.cache import CachePolicy
from repro.core.engine import LookupEngine
from repro.core.fields import ARTICLE_SCHEMA, Record
from repro.core.predicates import Prefix, Range, Wildcard
from repro.core.query import FieldQuery, RecordKeys
from repro.core.scheme import simple_scheme
from repro.core.service import IndexService
from repro.dht.chord import ChordNetwork
from repro.dht.idspace import hash_key
from repro.dht.ring import IdealRing
from repro.net.transport import SimulatedTransport
from repro.sim.experiment import Experiment
from repro.sim.presets import get_preset
from repro.storage.store import DHTStorage
from repro.workload.corpus import CorpusConfig, SyntheticCorpus
from repro.workload.querygen import QueryGenerator
from tests.core.select_oracle import select_entry_per_entry

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Per-test timing summaries collected for the JSON dump.
_TIMINGS: dict[str, dict[str, float]] = {}


@pytest.fixture(autouse=True)
def _collect_timing(request, benchmark):
    """Record every bench's timing stats for the module's JSON dump."""
    yield
    stats = getattr(getattr(benchmark, "stats", None), "stats", None)
    if stats is not None and stats.data:
        _TIMINGS[request.node.name] = {
            "mean_us": stats.mean * 1e6,
            "min_us": stats.min * 1e6,
            "median_us": stats.median * 1e6,
            "rounds": len(stats.data),
        }


@pytest.fixture(scope="module", autouse=True)
def _dump_micro_json():
    """Emit timings + perf counters as JSON after the module runs."""
    perf_before = perf.snapshot()
    yield
    counters = perf.delta(perf_before, perf.snapshot())
    hits = {
        name: round(rate, 4)
        for name, rate in perf.counters.cache_hit_rates().items()
    }
    payload = {
        "benchmarks": _TIMINGS,
        "perf_counters": counters,
        "cache_hit_rates": hits,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "micro_operations.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


def build_stack(num_nodes=64, populate=0):
    ring = IdealRing(64)
    for index in range(num_nodes):
        ring.add_node(hash_key(f"peer-{index}", 64))
    service = IndexService(
        ARTICLE_SCHEMA,
        simple_scheme(),
        DHTStorage(ring),
        DHTStorage(ring),
        SimulatedTransport(),
        cache_policy=CachePolicy.SINGLE,
    )
    corpus = SyntheticCorpus(
        CorpusConfig(num_articles=max(populate, 64), num_authors=64, seed=5)
    )
    for record in corpus.records[:populate]:
        service.insert_record(record)
    return service, corpus


def test_micro_insert_record(benchmark):
    service, corpus = build_stack()
    records = itertools.cycle(corpus.records)
    seen = set()

    def insert():
        record = next(records)
        if record in seen:
            service.delete_record(record)
        else:
            seen.add(record)
        service.insert_record(record)

    benchmark(insert)


def test_micro_query_resolution(benchmark):
    service, corpus = build_stack(populate=64)
    queries = itertools.cycle(
        [
            FieldQuery.of_record(record, ["author"])
            for record in corpus.records[:64]
        ]
    )
    benchmark(lambda: service.query(next(queries), user="user:micro"))


def test_micro_end_to_end_search(benchmark):
    service, corpus = build_stack(populate=64)
    engine = LookupEngine(service, user="user:micro2")
    generator = QueryGenerator(corpus, seed=8)
    items = itertools.cycle(list(generator.generate(256)))

    def search():
        item = next(items)
        trace = engine.search(item.query, item.target)
        assert trace.found

    benchmark(search)


def test_micro_canonical_key(benchmark):
    constraints = {"author": "John_Smith", "title": "TCP", "year": "1989"}
    benchmark(lambda: ARTICLE_SCHEMA.xpath_for(constraints))


def test_micro_cold_decode(benchmark):
    """One memo miss of ``FieldQuery.parse``: MSD-length keys, the four
    predicate spellings in turn (~100 us each through the xmlq parser)."""
    # An equal schema with a memo of its own to drop, not the other benches'.
    schema = dataclasses.replace(ARTICLE_SCHEMA)
    rest = {"title": "TCP_congestion_control", "conf": "INFOCOM", "size": "315635"}
    keys = itertools.cycle(
        [
            FieldQuery(schema, {**rest, "author": author, "year": year}).key()
            for author, year in (
                ("John_Smith", "1996"),
                (Prefix("John_S"), "1996"),
                (Wildcard("John*th"), "1996"),
                ("John_Smith", Range(1990, 1996)),
            )
        ]
    )

    def decode():
        schema.__dict__.pop(FieldQuery._PARSE_CACHE_ATTR, None)
        return FieldQuery.parse(schema, next(keys))

    benchmark(decode)


@pytest.mark.parametrize("select", ["covering", "per-entry"])
@pytest.mark.parametrize("target", ["hit", "miss"])
@pytest.mark.parametrize("size", [74, 510])
def test_micro_select_entry(benchmark, size, target, select):
    """The user's choice in one answer of the simple scheme: an author's
    articles, 74 (a typical answer) or 510 (the mean of the answers of
    50 entries or more in the ``paper`` preset), the target's MSD among
    them (``hit``) or only its author/title pair (``miss``).
    ``per-entry`` is the loop the engine ran before
    ``FieldQuery.select_covering``."""
    schema = dataclasses.replace(ARTICLE_SCHEMA)
    records = [
        Record(
            schema,
            {
                "author": "John_Smith",
                "title": f"TCP_congestion_control_{index}",
                "conf": ("SIGCOMM", "INFOCOM", "ICDCS")[index % 3],
                "year": str(1989 + index % 12),
                "size": str(300_000 + index),
            },
        )
        for index in range(size)
    ]
    if target == "hit":
        entries = [FieldQuery.msd_of(record).key() for record in records]
    else:
        entries = [
            FieldQuery.of_record(record, ["author", "title"]).key()
            for record in records
        ]
    wanted = records[40]
    keys = RecordKeys(wanted)  # the engine's, once per lookup
    msd = keys.msd()
    if select == "covering":
        chosen = benchmark(
            lambda: FieldQuery.select_covering(entries, wanted, msd, keys)
        )
    else:
        chosen = benchmark(lambda: select_entry_per_entry(schema, entries, wanted))
    assert chosen.key() == entries[40]


def test_micro_repair_pass(benchmark):
    """One ``repair()`` pass over the smoke preset's index catalog at
    replication 3, a node having joined or left since the last pass."""
    config = dataclasses.replace(get_preset("smoke"), replication=3)
    experiment = Experiment(config)
    experiment.populate()
    protocol, store = experiment.protocol, experiment.index_store
    joiner = hash_key("micro-joiner", config.bits)

    def churn():
        if joiner in protocol:
            protocol.remove_node(joiner)
        else:
            protocol.add_node(joiner)

    benchmark.pedantic(store.repair, setup=churn, rounds=40)
    assert store.under_replicated_keys() == []


def test_micro_chord_lookup(benchmark):
    ids = sorted(hash_key(f"peer-{i}", 64) for i in range(256))
    network = ChordNetwork.bulk_build(ids, bits=64)
    keys = itertools.cycle([hash_key(f"key-{i}", 64) for i in range(512)])
    benchmark(lambda: network.lookup(next(keys)))
