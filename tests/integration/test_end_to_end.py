"""Integration tests: the full stack wired end to end.

These tests exercise the exact scenario of the paper's Figures 4-6 (the
three bibliographic files indexed under author/title/conference/year) and
the full query workload over real substrates, including churn.
"""

import pytest

from repro.core.cache import CachePolicy
from repro.core.engine import LookupEngine
from repro.core.fields import ARTICLE_SCHEMA
from repro.core.query import FieldQuery
from repro.core.scheme import complex_scheme, flat_scheme, simple_scheme
from repro.core.service import IndexService
from repro.dht.chord import ChordNetwork
from repro.dht.idspace import hash_key
from repro.dht.kademlia import KademliaNetwork
from repro.dht.ring import IdealRing
from repro.net.transport import SimulatedTransport
from repro.storage.store import DHTStorage


def build_stack(protocol, scheme=None, policy=CachePolicy.NONE, capacity=None):
    transport = SimulatedTransport()
    service = IndexService(
        ARTICLE_SCHEMA,
        scheme or simple_scheme(),
        DHTStorage(protocol),
        DHTStorage(protocol),
        transport,
        cache_policy=policy,
        cache_capacity=capacity,
    )
    return service, LookupEngine(service, user="user:int")


def ring(num_nodes=24, bits=64):
    network = IdealRing(bits)
    for index in range(num_nodes):
        network.add_node(hash_key(f"peer-{index}", bits))
    return network


class TestPaperScenario:
    """Figures 4-6: three files, hierarchical indexes, iterative lookup."""

    def test_every_file_reachable_from_every_query_shape(self, paper_records):
        service, engine = build_stack(ring())
        for record in paper_records:
            service.insert_record(record)
        for record in paper_records:
            for fields in (["author"], ["title"], ["conf"], ["year"],
                           ["author", "title"]):
                query = FieldQuery.of_record(record, fields)
                trace = engine.search(query, record)
                assert trace.found, (record, fields)

    def test_figure6_index_path(self, paper_records):
        """q6 (author Smith) -> q3 -> d1/d2: the walk of Figure 6."""
        service, engine = build_stack(ring())
        for record in paper_records:
            service.insert_record(record)
        author_query = FieldQuery(ARTICLE_SCHEMA, {"author": "John_Smith"})
        results = engine.explore(author_query)
        # The author index returns the two John Smith author+title pairs.
        assert len(results) == 2
        parsed = [FieldQuery.parse(ARTICLE_SCHEMA, key) for key in results]
        assert {query.value("title") for query in parsed} == {"TCP", "IPv6"}

    def test_proceedings_index_shared(self, paper_records):
        """INFOCOM/1996 entry serves both d2 and d3 (Figure 5)."""
        service, engine = build_stack(ring())
        for record in paper_records:
            service.insert_record(record)
        conf_year = FieldQuery(
            ARTICLE_SCHEMA, {"conf": "INFOCOM", "year": "1996"}
        )
        results = engine.explore(conf_year)
        assert len(results) == 2

    def test_lookup_cost_ordering_across_schemes(self, paper_records):
        """Flat <= simple <= complex interactions on the same lookups."""
        totals = {}
        for name, scheme in (
            ("simple", simple_scheme()),
            ("flat", flat_scheme()),
            ("complex", complex_scheme()),
        ):
            service, engine = build_stack(ring(), scheme=scheme)
            for record in paper_records:
                service.insert_record(record)
            total = 0
            for record in paper_records:
                trace = engine.search(
                    FieldQuery.of_record(record, ["author"]), record
                )
                total += trace.interactions
            totals[name] = total
        assert totals["flat"] < totals["simple"] < totals["complex"]


class TestRealSubstrates:
    @pytest.mark.parametrize("substrate", ["chord", "kademlia"])
    def test_search_over_real_dht(self, paper_records, substrate):
        node_ids = sorted(hash_key(f"peer-{i}", 32) for i in range(24))
        if substrate == "chord":
            protocol = ChordNetwork.bulk_build(node_ids, bits=32)
        else:
            protocol = KademliaNetwork.bulk_build(node_ids, bits=32, k=6)
        service, engine = build_stack(protocol)
        for record in paper_records:
            service.insert_record(record)
        for record in paper_records:
            trace = engine.search(
                FieldQuery.of_record(record, ["title"]), record
            )
            assert trace.found

    def test_same_interactions_across_substrates(self, paper_records):
        node_ids = sorted(hash_key(f"peer-{i}", 32) for i in range(24))
        interaction_counts = []
        for protocol in (
            _ring32(node_ids),
            ChordNetwork.bulk_build(node_ids, bits=32),
            KademliaNetwork.bulk_build(node_ids, bits=32, k=6),
        ):
            service, engine = build_stack(protocol)
            for record in paper_records:
                service.insert_record(record)
            trace = engine.search(
                FieldQuery.of_record(paper_records[0], ["author"]),
                paper_records[0],
            )
            interaction_counts.append(trace.interactions)
        assert len(set(interaction_counts)) == 1


def _ring32(node_ids):
    network = IdealRing(32)
    for node in node_ids:
        network.add_node(node)
    return network


class TestChurn:
    def test_search_after_node_join_and_rebalance(self, paper_records):
        protocol = ring(num_nodes=10)
        service, engine = build_stack(protocol)
        for record in paper_records:
            service.insert_record(record)
        protocol.add_node(hash_key("late-joiner", 64))
        service.register_nodes()  # new node gets an endpoint + cache
        service.index_store.repair()
        service.file_store.repair()
        for record in paper_records:
            trace = engine.search(
                FieldQuery.of_record(record, ["author"]), record
            )
            assert trace.found

    def test_search_after_node_departure(self, paper_records):
        protocol = ring(num_nodes=10)
        service, engine = build_stack(protocol)
        for record in paper_records:
            service.insert_record(record)
        victim = protocol.node_ids[3]
        protocol.remove_node(victim)
        service.index_store.repair()
        service.file_store.repair()
        for record in paper_records:
            trace = engine.search(
                FieldQuery.of_record(record, ["title"]), record
            )
            assert trace.found

    def test_replicated_store_survives_loss_without_rebalance(
        self, paper_records
    ):
        protocol = ring(num_nodes=10)
        transport = SimulatedTransport()
        service = IndexService(
            ARTICLE_SCHEMA,
            simple_scheme(),
            DHTStorage(protocol, replication=3),
            DHTStorage(protocol, replication=3),
            transport,
        )
        for record in paper_records:
            service.insert_record(record)
        # Losing one node must not lose any key (replicas remain).
        victim = protocol.node_ids[0]
        protocol.remove_node(victim)
        for record in paper_records:
            msd = FieldQuery.msd_of(record)
            assert service.file_store.get(msd.key()).found


class TestCachingIntegration:
    def test_popular_lookup_accelerates(self, paper_records):
        service, engine = build_stack(ring(), policy=CachePolicy.SINGLE)
        for record in paper_records:
            service.insert_record(record)
        query = FieldQuery(ARTICLE_SCHEMA, {"author": "John_Smith"})
        cold = engine.search(query, paper_records[0])
        warm = engine.search(query, paper_records[0])
        assert warm.interactions < cold.interactions
        assert warm.cache_hit

    def test_cache_traffic_separated_from_normal(self, paper_records):
        service, engine = build_stack(ring(), policy=CachePolicy.MULTI)
        for record in paper_records:
            service.insert_record(record)
        engine.search(
            FieldQuery(ARTICLE_SCHEMA, {"author": "John_Smith"}), paper_records[0]
        )
        meter = service.transport.meter
        assert meter.cache_bytes > 0
        assert meter.normal_bytes > meter.cache_bytes
