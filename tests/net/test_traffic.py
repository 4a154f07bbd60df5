"""Unit tests for traffic metering and Figure 15's per-query node load.

The meter sums bytes and messages by category (Figure 12).  Figure 15
lives on the lookup: ``SearchTrace.touched`` holds every replica that
answered, and the experiment counts, per node, the lookups that touched
it.
"""

from repro.core.engine import LookupEngine
from repro.core.fields import ARTICLE_SCHEMA
from repro.core.query import FieldQuery
from repro.core.scheme import simple_scheme
from repro.core.service import IndexService
from repro.dht.idspace import hash_key
from repro.dht.ring import IdealRing
from repro.net.faults import FaultPlan, FaultyTransport
from repro.net.message import Message, MessageKind, TrafficCategory
from repro.net.traffic import TrafficMeter
from repro.net.transport import SimulatedTransport
from repro.sim.experiment import Experiment, ExperimentConfig
from repro.storage.store import DHTStorage


def query(source="user:0", destination="node:1", payload=("q",)):
    return Message(MessageKind.QUERY_REQUEST, source, destination, payload)


def cache_insert(destination="node:1"):
    return Message(MessageKind.CACHE_INSERT, "user:0", destination, ("q", "d"))


def stack(records, nodes, faulty=False):
    """A simple-scheme service over ``nodes`` ring nodes, and one user."""
    ring = IdealRing(64)
    for index in range(nodes):
        ring.add_node(hash_key(f"peer-{index}", 64))
    transport = SimulatedTransport()
    if faulty:
        transport = FaultyTransport(transport, FaultPlan())
    service = IndexService(
        ARTICLE_SCHEMA,
        simple_scheme(),
        DHTStorage(ring),
        DHTStorage(ring),
        transport,
    )
    for record in records:
        service.insert_record(record)
    return service, LookupEngine(service, user="user:fig15")


def tiny_run(nodes, queries):
    config = ExperimentConfig(
        num_nodes=nodes, num_articles=40, num_authors=8, num_queries=queries
    )
    experiment = Experiment(config)
    return experiment, experiment.run()


class TestByteAccounting:
    def test_bytes_accumulate_by_category(self):
        meter = TrafficMeter()
        first = query()
        meter.record(first)
        meter.record(cache_insert())
        assert meter.normal_bytes == first.size_bytes
        assert meter.cache_bytes == cache_insert().size_bytes
        assert meter.total_bytes == meter.normal_bytes + meter.cache_bytes

    def test_message_counts(self):
        meter = TrafficMeter()
        meter.record(query())
        meter.record(query())
        meter.record(cache_insert())
        assert meter.messages_for(TrafficCategory.NORMAL) == 2
        assert meter.messages_for(TrafficCategory.CACHE) == 1


class TestQueryLoad:
    def test_touch_counts_once_per_query(self, paper_records):
        # One node holds every key, so every exchange reaches it.
        service, engine = stack(paper_records, nodes=1)
        record = paper_records[0]
        trace = engine.search(FieldQuery.of_record(record, ["author"]), record)
        assert trace.found and trace.interactions > 1
        (node,) = service.index_store.protocol.node_ids
        assert trace.touched == {service.endpoint_name(node)}

    def test_counts_accumulate_across_queries(self):
        experiment, result = tiny_run(nodes=1, queries=3)
        assert list(experiment.node_queries.values()) == [3]
        assert result.node_query_percentages == [100.0]

    def test_sum_exceeds_query_count_with_fanout(self):
        """One query touching several nodes: totals sum above 100%."""
        experiment, result = tiny_run(nodes=16, queries=30)
        assert sum(experiment.node_queries.values()) > result.searches
        assert sum(result.node_query_percentages) > 100.0

    def test_lookup_without_answers_touches_nothing(self, paper_records):
        service, engine = stack(paper_records, nodes=4, faulty=True)
        for node in service.index_store.protocol.node_ids:
            service.transport.fail_node(service.endpoint_name(node))
        record = paper_records[0]
        trace = engine.search(FieldQuery.of_record(record, ["author"]), record)
        assert trace.gave_up and trace.failed_sends
        assert trace.touched == set()

    def test_untouched_nodes_not_reported(self, paper_records):
        """Publication traffic reaches nodes no lookup touches."""
        service, engine = stack(paper_records, nodes=16)
        holders = {
            service.endpoint_name(node)
            for node, keys in service.index_keys_per_node().items()
            if keys
        }
        record = paper_records[0]
        trace = engine.search(FieldQuery.of_record(record, ["title"]), record)
        assert trace.touched == {
            service.endpoint_name(node) for node, _ in trace.visited
        }
        assert trace.touched < holders
