"""Failure-aware lookup tests: retries, backoff budget, replica failover."""


from repro.core.engine import LookupEngine
from repro.core.fields import ARTICLE_SCHEMA
from repro.core.query import FieldQuery
from repro.core.scheme import simple_scheme
from repro.core.service import IndexService
from repro.dht.idspace import hash_key
from repro.dht.ring import IdealRing
from repro.net.faults import FaultPlan, FaultyTransport
from repro.net.transport import SimulatedTransport
from repro.storage.store import DHTStorage


def build_faulty(plan, num_nodes=12, replication=1, user="user:f"):
    ring = IdealRing(64)
    for index in range(num_nodes):
        ring.add_node(hash_key(f"peer-{index}", 64))
    transport = FaultyTransport(SimulatedTransport(), plan)
    service = IndexService(
        ARTICLE_SCHEMA,
        simple_scheme(),
        DHTStorage(ring, replication=replication),
        DHTStorage(ring, replication=replication),
        transport,
    )
    return ring, service, LookupEngine(service, user=user)


AUTHOR = {"author": "John_Smith"}


class TestRetries:
    def test_search_recovers_from_drops(self, paper_records):
        # At 20% drop an exchange fails with p = 1 - 0.8^2 = 0.36, but
        # three retries shrink the abandon rate to 0.36^4 ~ 1.7%.
        _, service, engine = build_faulty(FaultPlan(drop_probability=0.2, seed=5))
        for record in paper_records:
            service.insert_record(record)
        query = FieldQuery(ARTICLE_SCHEMA, AUTHOR)
        found = retried = 0
        for _ in range(40):
            trace = engine.search(query, paper_records[0])
            found += int(trace.found)
            retried += trace.retries
        assert found >= 35  # lossy network survived via retries
        assert retried > 0

    def test_trace_counts_failed_sends_separately(self, paper_records):
        _, service, engine = build_faulty(FaultPlan(drop_probability=0.5, seed=1))
        for record in paper_records:
            service.insert_record(record)
        query = FieldQuery(ARTICLE_SCHEMA, AUTHOR)
        traces = [engine.search(query, paper_records[0]) for _ in range(30)]
        assert any(t.failed_sends for t in traces)
        for trace in traces:
            # Interactions count only completed exchanges.
            assert trace.interactions <= engine.MAX_INTERACTIONS
            assert trace.failed_sends >= trace.retries

    def test_gave_up_on_total_loss(self, paper_records):
        _, service, engine = build_faulty(FaultPlan(drop_probability=1.0, seed=2))
        for record in paper_records:
            service.insert_record(record)
        trace = engine.search(FieldQuery(ARTICLE_SCHEMA, AUTHOR), paper_records[0])
        assert not trace.found
        assert trace.gave_up
        assert trace.interactions == 0
        assert trace.retries == engine.MAX_RETRIES
        assert trace.failed_sends == engine.MAX_RETRIES + 1

    def test_budget_bounds_retry_storm(self, paper_records):
        ring, service, _ = build_faulty(FaultPlan(drop_probability=1.0, seed=2))
        for record in paper_records:
            service.insert_record(record)
        engine = LookupEngine(service, user="user:tight")
        engine.MAX_INTERACTIONS = 3
        engine.MAX_RETRIES = 99
        trace = engine.search(FieldQuery(ARTICLE_SCHEMA, AUTHOR), paper_records[0])
        assert trace.gave_up
        # Budget of 3: first exchange (1) + backoff (1) + retry (1) = spent.
        assert trace.failed_sends <= 3

    def test_reliable_network_unchanged(self, paper_records):
        _, service, engine = build_faulty(FaultPlan())
        for record in paper_records:
            service.insert_record(record)
        trace = engine.search(FieldQuery(ARTICLE_SCHEMA, AUTHOR), paper_records[0])
        assert trace.found
        assert trace.retries == 0
        assert trace.failed_sends == 0
        assert not trace.gave_up


class TestReplicaFailover:
    def test_crashed_primary_served_by_replica(self, paper_records):
        _, service, engine = build_faulty(FaultPlan(), replication=3)
        for record in paper_records:
            service.insert_record(record)
        query = FieldQuery(ARTICLE_SCHEMA, AUTHOR)
        replicas = service.index_store.responsible_nodes(query.key())
        assert len(replicas) == 3
        service.transport.fail_node(service.endpoint_name(replicas[0]))
        for _ in range(6):  # rotation passes over the dead replica
            trace = engine.search(query, paper_records[0])
            assert trace.found

    def test_all_replicas_down_gives_up(self, paper_records):
        _, service, engine = build_faulty(FaultPlan(), replication=2)
        for record in paper_records:
            service.insert_record(record)
        query = FieldQuery(ARTICLE_SCHEMA, AUTHOR)
        for node in service.index_store.responsible_nodes(query.key()):
            service.transport.fail_node(service.endpoint_name(node))
        trace = engine.search(query, paper_records[0])
        assert not trace.found
        assert trace.gave_up

    def test_recovery_restores_service(self, paper_records):
        _, service, engine = build_faulty(FaultPlan(), replication=1)
        for record in paper_records:
            service.insert_record(record)
        query = FieldQuery(ARTICLE_SCHEMA, AUTHOR)
        (primary,) = service.index_store.responsible_nodes(query.key())
        name = service.endpoint_name(primary)
        service.transport.fail_node(name)
        assert not engine.search(query, paper_records[0]).found
        service.transport.recover_node(name)
        assert engine.search(query, paper_records[0]).found


class TestIdempotentUserRegistration:
    def test_reconstruction_shares_user_endpoint(self, small_service):
        first = LookupEngine(small_service, user="user:same")
        second = LookupEngine(small_service, user="user:same")
        assert small_service.transport.is_registered("user:same")
        assert first.user == second.user

    def test_reconstruction_after_unregister(self, small_service):
        LookupEngine(small_service, user="user:gone")
        small_service.transport.unregister("user:gone")
        LookupEngine(small_service, user="user:gone")  # must not raise
        assert small_service.transport.is_registered("user:gone")
