"""Accounting invariants of the :mod:`repro.perf` cache counters.

Every cached operation advertises a ``(calls, hits, misses)`` triple in
:data:`repro.perf.CACHE_TRIPLES`; the instrumented layers must keep
``hits + misses == calls`` at every instant, and each counter must be
monotone between resets.  A realistic search workload drives the one
cached operation, the ``field_parse_*`` triple of the FieldQuery parse
cache, and checks the books afterwards.
"""

from __future__ import annotations

from repro import perf
from repro.core.cache import CachePolicy
from repro.core.engine import LookupEngine
from repro.core.fields import ARTICLE_SCHEMA
from repro.core.query import FieldQuery
from repro.core.scheme import simple_scheme
from repro.core.service import IndexService
from repro.dht.idspace import hash_key
from repro.dht.ring import IdealRing
from repro.net.transport import SimulatedTransport
from repro.sim.experiment import Experiment
from repro.sim.presets import get_preset
from repro.storage.store import DHTStorage
from repro.workload.corpus import CorpusConfig, SyntheticCorpus
from repro.workload.querygen import QueryGenerator


def run_search_workload(num_queries: int = 200) -> None:
    """Drive the cached hot-path operation through real searches: engine
    searches exercise the ``field_parse_*`` triple."""
    ring = IdealRing(64)
    for index in range(16):
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
        CorpusConfig(num_articles=64, num_authors=24, seed=5)
    )
    for record in corpus.records:
        service.insert_record(record)
    engine = LookupEngine(service, user="user:invariant")
    for item in QueryGenerator(corpus, seed=7).generate(num_queries):
        trace = engine.search(item.query, item.target)
        service.transport.meter.end_query()
        assert trace.found


class TestCacheTripleInvariants:
    def test_every_triple_names_real_counters(self):
        for triple in perf.CACHE_TRIPLES:
            for name in triple:
                assert name in perf.PerfCounters.__slots__, name

    def test_hits_plus_misses_equals_calls_after_workload(self):
        """The defining cache identity holds for every triple -- in
        particular ``field_parse_*``, whose calls counter must tick on
        every FieldQuery.parse, hit or miss."""
        before = perf.snapshot()
        run_search_workload()
        increments = perf.delta(before, perf.snapshot())
        for calls_name, hits_name, misses_name in perf.CACHE_TRIPLES:
            calls = increments[calls_name]
            hits = increments[hits_name]
            misses = increments[misses_name]
            assert calls > 0, f"workload never exercised {calls_name}"
            assert hits + misses == calls, (
                f"{calls_name}: {hits} hits + {misses} misses != "
                f"{calls} calls"
            )

    def test_counters_are_monotone_across_workloads(self):
        first = perf.snapshot()
        run_search_workload(num_queries=60)
        second = perf.snapshot()
        run_search_workload(num_queries=60)
        third = perf.snapshot()
        for name in perf.PerfCounters.__slots__:
            assert first[name] <= second[name] <= third[name], name

    def test_identity_holds_at_every_intermediate_snapshot(self):
        """Sampling mid-workload never catches the books unbalanced:
        the layers bump hit/miss in the same step as the call."""
        perf.counters.reset()
        samples = []
        for _ in range(4):
            run_search_workload(num_queries=30)
            samples.append(perf.snapshot())
        for sample in samples:
            for calls_name, hits_name, misses_name in perf.CACHE_TRIPLES:
                assert (
                    sample[hits_name] + sample[misses_name]
                    == sample[calls_name]
                ), calls_name

    def test_cache_hit_rates_only_reports_exercised_triples(self):
        counters = perf.PerfCounters()
        assert counters.cache_hit_rates() == {}
        counters.field_parse_calls = 10
        counters.field_parse_cache_hits = 8
        counters.field_parse_cache_misses = 2
        assert counters.cache_hit_rates() == {"field_parse_calls": 0.8}


class TestPublicationBuildsKeysNotQueries:
    def test_populate_builds_at_most_one_query_per_record(self, monkeypatch):
        """A record's keys come from its chain texts: the returned MSD is
        the one query publication builds (it built 12 per record from
        ``FieldQuery`` objects), and it never parses a key."""
        constructed = [0]
        init = FieldQuery.__init__

        def counted(query, *args, **kwargs):
            constructed[0] += 1
            init(query, *args, **kwargs)

        experiment = Experiment(get_preset("smoke"))
        monkeypatch.setattr(FieldQuery, "__init__", counted)
        before = perf.snapshot()
        experiment.populate()
        increments = perf.delta(before, perf.snapshot())
        assert constructed[0] <= len(experiment.corpus.records)
        assert increments["field_parse_calls"] == 0
