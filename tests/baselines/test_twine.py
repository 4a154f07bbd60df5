"""Unit tests for the INS/Twine-style replication baseline."""

import pytest

from repro.core.fields import ARTICLE_SCHEMA
from repro.core.query import FieldQuery
from repro.dht.idspace import hash_key
from repro.dht.ring import IdealRing
from repro.net.transport import SimulatedTransport
from repro.storage.store import DHTStorage
from tests.baselines.twine import TwineResolver


def build(max_strand_fields=2, num_nodes=12):
    ring = IdealRing(64)
    for index in range(num_nodes):
        ring.add_node(hash_key(f"peer-{index}", 64))
    transport = SimulatedTransport()
    resolver = TwineResolver(
        ARTICLE_SCHEMA,
        DHTStorage(ring),
        DHTStorage(ring),
        transport,
        max_strand_fields=max_strand_fields,
    )
    return resolver


class TestStrands:
    def test_strand_keysets_singles_and_pairs(self):
        resolver = build(max_strand_fields=2)
        keysets = resolver.strand_keysets()
        assert ("author",) in keysets
        assert ("author", "year") in keysets
        # 4 singles + C(4,2)=6 pairs.
        assert len(keysets) == 10
        assert resolver.copies_per_record() == 10

    def test_strand_size_one(self):
        resolver = build(max_strand_fields=1)
        assert len(resolver.strand_keysets()) == 4

    def test_invalid_strand_size(self):
        with pytest.raises(ValueError):
            build(max_strand_fields=0)

    def test_strands_for_record(self, paper_records):
        resolver = build()
        strands = resolver.strands_for(paper_records[0])
        assert all(
            strand.covers_record(paper_records[0]) for strand in strands
        )


class TestReplication:
    def test_full_description_on_every_strand(self, paper_records):
        resolver = build()
        resolver.insert_record(paper_records[0])
        msd_key = FieldQuery.msd_of(paper_records[0]).key()
        for strand in resolver.strands_for(paper_records[0]):
            assert msd_key in resolver.description_store.values(strand.key())

    def test_storage_grows_with_strand_size(self, paper_records):
        small = build(max_strand_fields=1)
        large = build(max_strand_fields=2)
        for record in paper_records:
            small.insert_record(record)
            large.insert_record(record)
        assert large.storage_bytes() > small.storage_bytes()

    def test_replication_heavier_than_key_to_key_indexes(self, paper_records):
        """The paper's core claim against Twine, on identical data."""
        from repro.core.scheme import simple_scheme
        from repro.core.service import IndexService

        resolver = build()
        for record in paper_records:
            resolver.insert_record(record)

        ring = IdealRing(64)
        for index in range(12):
            ring.add_node(hash_key(f"peer-{index}", 64))
        service = IndexService(
            ARTICLE_SCHEMA,
            simple_scheme(),
            DHTStorage(ring),
            DHTStorage(ring),
            SimulatedTransport(),
        )
        for record in paper_records:
            service.insert_record(record)
        assert resolver.storage_bytes() > service.index_storage_bytes()


class TestLookup:
    def test_two_interaction_lookup(self, paper_records):
        resolver = build()
        for record in paper_records:
            resolver.insert_record(record)
        query = FieldQuery(ARTICLE_SCHEMA, {"author": "John_Smith"})
        found, interactions = resolver.lookup(
            query, paper_records[0], user="user:tw"
        )
        assert found and interactions == 2

    def test_pair_strand_answers_author_year(self, paper_records):
        """author+year fails on every paper scheme but is a Twine strand."""
        resolver = build()
        for record in paper_records:
            resolver.insert_record(record)
        query = FieldQuery.of_record(paper_records[1], ["author", "year"])
        found, interactions = resolver.lookup(
            query, paper_records[1], user="user:tw"
        )
        assert found and interactions == 2

    def test_missing_target_not_found(self, paper_records):
        resolver = build()
        resolver.insert_record(paper_records[0])
        query = FieldQuery(ARTICLE_SCHEMA, {"author": "Alan_Doe"})
        found, _ = resolver.lookup(query, paper_records[2], user="user:tw")
        assert not found

    def test_workload_run(self, paper_records):
        from repro.workload.corpus import CorpusConfig, SyntheticCorpus
        from repro.workload.querygen import QueryGenerator

        corpus = SyntheticCorpus(
            CorpusConfig(num_articles=100, num_authors=40, seed=1)
        )
        resolver = build(num_nodes=16)
        for record in corpus.records:
            resolver.insert_record(record)
        generator = QueryGenerator(corpus, seed=2)
        result = resolver.run_workload(generator.generate(500))
        assert result.searches == 500
        assert result.found == 500
        assert result.avg_interactions == 2.0
        assert result.normal_bytes_per_query > 0
