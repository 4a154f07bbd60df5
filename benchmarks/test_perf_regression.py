"""Counter-based perf regression guard for the query-algebra hot path.

Wall-clock timings are noisy in CI, so this guard asserts on the
:mod:`repro.perf` counters instead: cache hit-rates must stay above a
floor and parse, lookup and thread-crossing counts below a ceiling.
If a refactor silently drops the key-parse memo or re-routes the
catalogue on every repair pass, these tests fail deterministically on
any machine.

Run with the other benches::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_regression.py -q
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro import perf
from repro.core.cache import CachePolicy
from repro.core.engine import LookupEngine
from repro.core.fields import ARTICLE_SCHEMA
from repro.core.query import FieldQuery, RecordKeys
from repro.core.scheme import simple_scheme
from repro.core.service import IndexService
from repro.dht.idspace import hash_key
from repro.dht.ring import IdealRing
from repro.net.transport import SimulatedTransport
from repro.rpc.cluster import LocalCluster
from repro.sim.experiment import Experiment, ExperimentConfig
from repro.sim.kernel import EventKernel
from repro.sim.presets import get_preset
from repro.storage.store import DHTStorage
from repro.workload.corpus import CorpusConfig, SyntheticCorpus
from repro.workload.querygen import QueryGenerator


def _delta(action) -> dict[str, int]:
    """Run ``action`` and return the perf-counter increments it caused."""
    before = perf.snapshot()
    action()
    return perf.delta(before, perf.snapshot())


def _query_matrix(num_records: int = 8) -> list[str]:
    queries = []
    for i in range(num_records):
        record = {
            "author": f"Author_{i}",
            "title": f"Title_{i}",
            "conf": ("SIGCOMM", "INFOCOM", "ICDCS")[i % 3],
            "year": ("1989", "1996", "2001")[i % 3],
        }
        for keys in (
            ("author",),
            ("conf",),
            ("author", "title"),
            ("conf", "year"),
            ("author", "title", "conf", "year"),
        ):
            queries.append(
                ARTICLE_SCHEMA.xpath_for({k: record[k] for k in keys})
            )
    return list(dict.fromkeys(queries))


class TestEndToEndCounters:
    def test_search_workload_cache_floors(self):
        """A realistic search workload must keep the text-parse caches
        hot: repeated response entries parse once, not per interaction."""
        ring = IdealRing(64)
        for index in range(32):
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
            CorpusConfig(num_articles=128, num_authors=48, seed=11)
        )
        for record in corpus.records:
            service.insert_record(record)
        engine = LookupEngine(service, user="user:guard")
        items = list(QueryGenerator(corpus, seed=13).generate(600))

        def workload():
            for item in items:
                trace = engine.search(item.query, item.target)
                assert trace.found

        increments = _delta(workload)
        # Selection reads known entries straight from the memo, so
        # ``parse`` is called for first sights only: its hit rate says
        # nothing any more, its call count per search does.
        calls = increments["field_parse_calls"]
        assert 0 < calls <= 2 * len(items), (
            f"entry selection is parsing again: {calls / len(items):.1f} "
            "parse calls per search"
        )
        # Answers hold canonical keys, decoded directly: no lookup, hit
        # or miss, goes through the general XPath parser.
        assert increments["field_parse_cache_misses"] > 0
        assert increments["xpath_parses"] == 0
        assert calls == (
            increments["field_parse_cache_hits"]
            + increments["field_parse_cache_misses"]
        )
        # The predicate algebra must be pay-for-what-you-use: an
        # exact-only workload never walks a trie or specializes a
        # predicate query back down to its target.
        assert increments["trie_walks"] == 0
        assert increments["engine_specializations"] == 0

    def test_paper_cell_parses_first_sights_only(self):
        """The paper's own cell (~74 entries per answer, two answers per
        lookup): 148 parse calls per search when selection parsed every
        entry of every answer, first sights only since."""
        experiment = Experiment(replace(get_preset("paper"), num_queries=2_000))
        experiment.populate()
        experiment.service.schema.__dict__.pop(FieldQuery._PARSE_CACHE_ATTR, None)
        counts = experiment.run().perf_counters
        assert counts["engine_searches"] == 2_000
        assert 0 < counts["field_parse_calls"] <= 20 * counts["engine_searches"]
        assert counts["xpath_parses"] == 0


class TestPublicationCounters:
    def test_paper_populate_builds_keys_not_queries(self, monkeypatch):
        """Publishing the paper's 10,000 records builds each record's keys
        from its chain texts: at most the returned MSD per record is a
        ``FieldQuery`` (12 per record when every mapping end was one),
        and no key is parsed."""
        constructed = [0]
        init = FieldQuery.__init__

        def counted(query, *args, **kwargs):
            constructed[0] += 1
            init(query, *args, **kwargs)

        experiment = Experiment(get_preset("paper"))
        monkeypatch.setattr(FieldQuery, "__init__", counted)
        increments = _delta(experiment.populate)
        assert constructed[0] <= len(experiment.corpus.records) == 10_000
        assert increments["field_parse_calls"] == 0


class TestKernelSchedulerCounters:
    """Counter-based guards on the event-kernel timing wheel.

    The wheel's asymptotics live in three internal counters -- entries
    moved by adaptive resizes (must stay O(n) amortized), empty buckets
    probed by the forward scan (must stay O(1) per pop), and min()
    fallbacks (must stay rare).  These are deterministic on any machine,
    unlike wall-clock ratios.
    """

    @staticmethod
    def _lcg_delays(count: int, horizon: float) -> list[float]:
        state = 0x9E3779B9
        scale = horizon / 0xFFFFFFFF
        delays = []
        for _ in range(count):
            state = (state * 1103515245 + 12345) & 0xFFFFFFFF
            delays.append(state * scale)
        return delays

    def test_wheel_dense_counters_stay_amortized(self):
        n = 200_000
        kernel = EventKernel(scheduler="wheel")
        noop = lambda: None  # noqa: E731
        for delay in self._lcg_delays(n, 400.0):
            kernel.post(delay, noop)
        kernel.run()
        stats = kernel.stats()
        assert kernel.events_run == n
        assert stats["rebuilds"] >= 1, "dense load must trigger a resize"
        assert stats["entries_moved"] <= 2 * n, (
            f"resize churn regressed: {stats['entries_moved']} moves for "
            f"{n} events (amortized bound is ~4n/3)"
        )
        assert stats["scan_probes"] <= n, (
            f"forward scan regressed: {stats['scan_probes']} empty probes "
            f"for {n} events"
        )
        assert stats["scan_fallbacks"] <= 5

    def test_wheel_sparse_counters_stay_amortized(self):
        n = 50_000
        kernel = EventKernel(scheduler="wheel")
        noop = lambda: None  # noqa: E731
        for delay in self._lcg_delays(n, 2_500_000.0):
            kernel.post(delay, noop)
        kernel.run()
        stats = kernel.stats()
        assert kernel.events_run == n
        # Without the symmetric bucket widening, a 1ms-wide wheel pays
        # ~50 empty probes per pop here (2.5M indices / 50k events).
        assert stats["scan_probes"] <= 2 * n, (
            f"sparse scan regressed: {stats['scan_probes']} empty probes "
            f"for {n} events -- did adaptive widening break?"
        )
        assert stats["scan_fallbacks"] <= 50


class TestTracingOverhead:
    """The observability layer must cost nothing when off, little when on.

    Every tracer call site is guarded by ``if tracer is not None``; an
    untraced run therefore performs zero tracing work beyond the None
    check.  The structural test pins that wiring; the wall-clock test
    bounds the traced/untraced ratio on a concurrent kernel run with a
    generous margin (locally ~1.17x) so genuine regressions -- an
    unguarded call site, eager serialization -- fail loudly without CI
    timing noise causing flakes.
    """

    CONFIG = ExperimentConfig(
        cache="single",
        num_nodes=20,
        num_articles=120,
        num_queries=400,
        num_authors=48,
        concurrency=8,
        latency_model="uniform:10:100",
    )

    def test_untraced_stack_holds_no_tracer(self):
        experiment = Experiment(self.CONFIG)
        assert experiment.tracer is None
        assert experiment.engine.tracer is None
        assert experiment.transport.tracer is None
        assert experiment.index_store.tracer is None
        assert experiment.file_store.tracer is None

    def test_traced_run_overhead_is_bounded(self):
        def best_of(config, repetitions=3):
            times = []
            for _ in range(repetitions):
                experiment = Experiment(config)
                start = time.perf_counter()
                experiment.run()
                times.append(time.perf_counter() - start)
            return min(times)

        best_of(self.CONFIG, repetitions=1)  # warm process-global caches
        untraced = best_of(self.CONFIG)
        traced = best_of(replace(self.CONFIG, trace=True))
        ratio = traced / untraced
        assert ratio < 1.75, (
            f"tracing overhead regressed: traced/untraced = {ratio:.2f} "
            f"({traced * 1000:.0f}ms vs {untraced * 1000:.0f}ms)"
        )


class TestWireThreadCrossings:
    """A blocking wire lookup crosses onto the loop thread once.

    The wire path's cost is thread hand-offs and loop iterations, both
    too noisy to time in CI; ``rpc_thread_crossings`` counts the calls
    marshalled onto a transport's loop from another thread.  One per
    ``ClusterClient.search`` -- not one per message, as when every
    exchange was a blocking ``send`` -- whatever the chain's length.
    """

    def test_one_crossing_per_search_not_per_exchange(self):
        corpus = SyntheticCorpus(
            CorpusConfig(num_articles=30, num_authors=8, seed=7)
        )
        feed = list(QueryGenerator(corpus, seed=3).generate(120))
        with LocalCluster(5, cache="single") as cluster:
            client = cluster.client()
            for record in corpus.records:
                client.insert_record(record)

            def lookups():
                for item in feed:
                    assert client.search(item.query, item.target).found

            increments = _delta(lookups)
            client.close()
        assert increments["engine_searches"] == len(feed)
        assert increments["rpc_thread_crossings"] == len(feed)
        # The exchanges are still there -- they stay on the loop.
        assert increments["rpc_requests"] > 2 * len(feed)
        assert increments["rpc_timeouts"] == increments["rpc_retries"] == 0


class TestPublishFrames:
    """A wire publish sends one signed insert batch per destination daemon.

    ``wire_publish``'s cluster shape: five signed daemons, replication 3.
    One frame per (mapping, replica) was 21 request frames per publish,
    each frame and its ACK signed; grouped by destination it is at most
    five, and ``sec_sign_calls`` follow at two per frame.
    """

    def test_at_most_one_frame_per_destination_daemon(self):
        corpus = SyntheticCorpus(
            CorpusConfig(num_articles=20, num_authors=8, seed=7)
        )
        with LocalCluster(5, replication=3, signed=True) as cluster:
            client = cluster.client()
            for record in corpus.records:
                keys = RecordKeys(record)
                placed = set(client.file_store.responsible_nodes(keys.msd_key))
                for source_key, _ in client.scheme.mappings_for(keys):
                    placed.update(client.index_store.responsible_nodes(source_key))
                increments = _delta(lambda: client.insert_record(record))
                assert increments["rpc_requests"] <= len(placed) <= 5
                assert increments["sec_sign_calls"] <= 2 * len(placed)
            client.close()


class TestPublishRoutesEachKeyOnce:
    """A simulated publication routes each distinct key once.

    Counted from here, around ``IdealRing.lookup``.  The ``paper``
    corpus makes 70,000 placements -- 10,000 files and 60,000 index
    mappings -- over 32,669 distinct keys (10,000 file keys and 22,669
    index keys).  ``populate`` publishes the corpus through one placement
    pass, so it routes each key once, not once per placement.
    """

    def test_paper_populate_routes_once_per_distinct_key(self, monkeypatch):
        calls = [0]
        lookup = IdealRing.lookup

        def counted(ring, key):
            calls[0] += 1
            return lookup(ring, key)

        experiment = Experiment(get_preset("paper"))
        monkeypatch.setattr(IdealRing, "lookup", counted)
        experiment.populate()
        distinct = len(experiment.index_store._catalog) + len(
            experiment.file_store._catalog
        )
        assert distinct == 32_669
        assert calls[0] <= distinct, f"{calls[0]} protocol.lookup calls"


class TestRepairWalksWhatChurnMoved:
    """``DHTStorage.repair`` routes the keys a membership change can have
    moved, not the catalogue.

    Counted from here, around ``IdealRing.lookup`` -- nothing in ``src/``
    knows.  ``bench/run.py --workload sim_churn``'s shape: the
    ``concurrent`` preset, 1,600 queries, two churn events, one crash.
    When every pass routed every catalogued key (32,669 of them, two
    stores) the run made 108,421 lookups; the lookups themselves need
    about 9,000.
    """

    def test_sim_churn_shaped_run_stays_under_20k_lookups(self, monkeypatch):
        calls = [0]
        lookup = IdealRing.lookup

        def counted(ring, key):
            calls[0] += 1
            return lookup(ring, key)

        experiment = Experiment(
            replace(
                get_preset("concurrent"),
                num_queries=1_600,
                churn_events=2,
                crash_events=1,
            )
        )
        experiment.populate()
        monkeypatch.setattr(IdealRing, "lookup", counted)
        result = experiment.run()
        assert result.repair_keys > 0 and result.found >= 1_590
        assert calls[0] <= 20_000, f"{calls[0]} protocol.lookup calls"
