"""Cross-feature integration: compositions the unit tests don't cover.

Each test wires together at least three features that were developed and
tested separately: prefix indexes over a real DHT, interactive sessions
with caching, replication with deletion, churned storage beneath prefix
search, and Twine beside the index service on one substrate.
"""


from repro.baselines.twine import TwineResolver
from repro.core.cache import CachePolicy
from repro.core.engine import LookupEngine
from repro.core.fields import ARTICLE_SCHEMA
from repro.core.predicates import Prefix
from repro.core.query import FieldQuery
from repro.core.scheme import FieldPredicates, complex_scheme, simple_scheme
from repro.core.service import IndexService
from repro.core.session import InteractiveSession
from repro.core.trie import TrieIndex
from repro.dht.chord import ChordNetwork
from repro.dht.idspace import hash_key
from repro.dht.ring import IdealRing
from repro.net.transport import SimulatedTransport
from repro.storage.store import DHTStorage


def chord_service(
    paper_records, policy=CachePolicy.NONE, replication=1, predicates=None
):
    node_ids = sorted(hash_key(f"peer-{i}", 32) for i in range(20))
    network = ChordNetwork.bulk_build(node_ids, bits=32)
    service = IndexService(
        ARTICLE_SCHEMA,
        simple_scheme(predicates=predicates),
        DHTStorage(network, replication=replication),
        DHTStorage(network, replication=replication),
        SimulatedTransport(),
        cache_policy=policy,
    )
    for record in paper_records:
        service.insert_record(record)
    return service


#: One- and four-letter author prefix levels (Section IV-C).
AUTHOR_PREFIXES = {
    "author": FieldPredicates(kinds=("prefix",), trie_levels=(1, 4))
}


def author_prefix(prefix):
    return FieldQuery(ARTICLE_SCHEMA, {"author": Prefix(prefix)})


class TestPrefixOverChord:
    def test_prefix_search_over_real_dht(self, paper_records):
        service = chord_service(paper_records, predicates=AUTHOR_PREFIXES)
        TrieIndex(service).insert_all(paper_records)
        engine = LookupEngine(service, user="user:fc1")
        trace = engine.search(author_prefix("J"), paper_records[0])
        assert trace.found

    def test_prefix_entries_survive_rebalance(self, paper_records):
        service = chord_service(paper_records, predicates=AUTHOR_PREFIXES)
        TrieIndex(service).insert_all(paper_records)
        protocol = service.index_store.protocol
        fresh = next(
            hash_key(f"late-{i}", 32)
            for i in range(100)
            if hash_key(f"late-{i}", 32) not in protocol
        )
        protocol.add_node(fresh)
        service.register_nodes()
        service.index_store.repair()
        service.file_store.repair()
        engine = LookupEngine(service, user="user:fc2")
        trace = engine.search(author_prefix("A"), paper_records[2])
        assert trace.found


class TestSessionWithCache:
    def test_session_sees_shortcuts_after_engine_search(self, paper_records):
        service = chord_service(paper_records, policy=CachePolicy.SINGLE)
        engine = LookupEngine(service, user="user:fc3")
        author = FieldQuery(ARTICLE_SCHEMA, {"author": "John_Smith"})
        engine.search(author, paper_records[0])
        session = InteractiveSession(service, author, user="user:fc4")
        # The cached shortcut appears among the session's choices.
        msd = FieldQuery.msd_of(paper_records[0]).key()
        assert msd in session.current.shortcuts
        session.refine(msd)
        assert session.at_file_level and session.fetch()


class TestReplicatedDeletion:
    def test_delete_removes_all_replicas(self, paper_records):
        service = chord_service(paper_records, replication=3)
        msd = FieldQuery.msd_of(paper_records[0])
        assert len(service.file_store.responsible_nodes(msd.key())) == 3
        service.delete_record(paper_records[0])
        for node in service.file_store.protocol.node_ids:
            assert not service.file_store.values_at(node, msd.key())

    def test_search_fails_cleanly_after_replicated_delete(self, paper_records):
        service = chord_service(paper_records, replication=3)
        service.delete_record(paper_records[0])
        engine = LookupEngine(service, user="user:fc5")
        trace = engine.search(
            FieldQuery.of_record(paper_records[0], ["title"]), paper_records[0]
        )
        assert not trace.found


class TestTwineBesideIndexes:
    def test_both_systems_share_one_substrate(self, paper_records):
        """Twine resolvers and index nodes coexist on the same overlay
        and transport without interfering."""
        ring = IdealRing(64)
        for index in range(16):
            ring.add_node(hash_key(f"peer-{index}", 64))
        transport = SimulatedTransport()
        service = IndexService(
            ARTICLE_SCHEMA,
            complex_scheme(),
            DHTStorage(ring),
            DHTStorage(ring),
            transport,
        )
        twine = TwineResolver(
            ARTICLE_SCHEMA, DHTStorage(ring), DHTStorage(ring), transport
        )
        for record in paper_records:
            service.insert_record(record)
            twine.insert_record(record)
        engine = LookupEngine(service, user="user:fc6")
        query = FieldQuery(ARTICLE_SCHEMA, {"author": "John_Smith"})
        index_trace = engine.search(query, paper_records[0])
        twine_found, twine_interactions = twine.lookup(
            query, paper_records[0], user="user:fc7"
        )
        assert index_trace.found and twine_found
        assert twine_interactions == 2
        assert index_trace.interactions == 4  # complex chain
