"""Failure-injection tests: the stack under partial failure and abuse.

The paper leaves failure handling to the DHT substrate ("our indexing
techniques directly benefit from any mechanisms implemented in the DHT
to deal with failures"), so the interesting failure modes live at the
boundaries: unreachable endpoints, lost storage, exhausted search
budgets, and malformed index state injected by a misbehaving peer.
"""

import pytest

from repro.core.cache import CachePolicy
from repro.core.engine import LookupEngine
from repro.core.fields import ARTICLE_SCHEMA
from repro.core.query import FieldQuery
from repro.core.scheme import simple_scheme
from repro.core.service import IndexService
from repro.dht.idspace import hash_key
from repro.dht.ring import IdealRing
from repro.net.message import Message, MessageKind
from repro.net.transport import SimulatedTransport, TransportError
from repro.storage.store import DHTStorage


def build(num_nodes=12, policy=CachePolicy.NONE):
    ring = IdealRing(64)
    for index in range(num_nodes):
        ring.add_node(hash_key(f"peer-{index}", 64))
    transport = SimulatedTransport()
    service = IndexService(
        ARTICLE_SCHEMA,
        simple_scheme(),
        DHTStorage(ring),
        DHTStorage(ring),
        transport,
        cache_policy=policy,
    )
    return ring, service, LookupEngine(service, user="user:fi")


class TestUnreachableNodes:
    def test_departed_node_breaks_only_its_keys(self, paper_records):
        ring, service, engine = build()
        for record in paper_records:
            service.insert_record(record)
        # A node leaves without the storage layer rebalancing: keys that
        # hashed to it become unreachable (no replication), the transport
        # raises, and other keys keep working.
        author = FieldQuery(ARTICLE_SCHEMA, {"author": "John_Smith"})
        victim = service.index_store.responsible_nodes(author.key())[0]
        ring.remove_node(victim)
        service.transport.unregister(service.endpoint_name(victim))
        # The key now resolves to a different live node, which simply has
        # no data: an empty answer, not a crash.
        answer = service.query(author, user="user:fi")
        assert answer.empty

    def test_unregistered_endpoint_is_loud(self):
        transport = SimulatedTransport()
        with pytest.raises(TransportError):
            transport.send(
                Message(MessageKind.QUERY_REQUEST, "user:x", "node:dead", ("q",))
            )


class TestSearchBudget:
    def test_max_interactions_bounds_runaway_search(self, paper_records):
        _, service, engine = build()
        # Poison the index: a self-referential mapping that would loop a
        # naive client forever.  (A malicious peer cannot create covering
        # violations through insert_record, so we inject directly.)
        author = FieldQuery(ARTICLE_SCHEMA, {"author": "John_Smith"})
        pair = FieldQuery(
            ARTICLE_SCHEMA, {"author": "John_Smith", "title": "TCP"}
        )
        service.index_store.put(author.key(), pair.key())
        service.index_store.put(pair.key(), pair.key())  # self-loop
        bounded = LookupEngine(service, user="user:b")
        bounded.MAX_INTERACTIONS = 8
        trace = bounded.search(author, paper_records[0])
        assert not trace.found
        assert trace.interactions <= 8

    def test_engine_rejects_non_covering_search(self, paper_records):
        from repro.core.engine import LookupError_

        _, _, engine = build()
        wrong = FieldQuery(ARTICLE_SCHEMA, {"author": "Alan_Doe"})
        with pytest.raises(LookupError_):
            engine.search(wrong, paper_records[0])


class TestMalformedIndexState:
    def test_garbage_index_entries_skipped(self, paper_records):
        _, service, engine = build()
        for record in paper_records:
            service.insert_record(record)
        author = FieldQuery(ARTICLE_SCHEMA, {"author": "John_Smith"})
        # A misbehaving peer stored unparseable entries under the key.
        service.index_store.put(author.key(), "!!not a query!!")
        service.index_store.put(author.key(), "/otherroot[x[y]]")
        trace = engine.search(author, paper_records[0])
        assert trace.found  # garbage ignored, real entries still usable

    def test_arbitrary_link_resistance(self, paper_records):
        """Section IV-D: a file can only be indexed under covering keys.

        The scheme layer enforces the discipline: trying to create an
        index class edge that does not increase specificity fails, so a
        peer cannot masquerade content under an unrelated key through
        the public API.
        """
        from repro.core.scheme import IndexScheme, SchemeValidationError

        with pytest.raises(SchemeValidationError):
            IndexScheme(
                "evil",
                ARTICLE_SCHEMA,
                {("author",): [("title",)], ("title",): ["MSD"]},
            )


class TestCacheUnderFailure:
    def test_stale_shortcut_to_deleted_file(self, paper_records):
        _, service, engine = build(policy=CachePolicy.SINGLE)
        for record in paper_records:
            service.insert_record(record)
        author = FieldQuery(ARTICLE_SCHEMA, {"author": "John_Smith"})
        engine.search(author, paper_records[0])  # seeds the shortcut
        service.delete_record(paper_records[0])
        # The shortcut now dangles; a search for the deleted record
        # follows it, misses the file, and reports not-found without
        # crashing or looping.
        trace = engine.search(author, paper_records[0])
        assert not trace.found
        assert trace.interactions <= 8

    def test_other_records_unaffected_by_stale_shortcut(self, paper_records):
        _, service, engine = build(policy=CachePolicy.SINGLE)
        for record in paper_records:
            service.insert_record(record)
        author = FieldQuery(ARTICLE_SCHEMA, {"author": "John_Smith"})
        engine.search(author, paper_records[0])
        service.delete_record(paper_records[0])
        trace = engine.search(author, paper_records[1])  # the other Smith
        assert trace.found
