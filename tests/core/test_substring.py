"""Prefix (substring) index classes -- Section IV-C -- through the trie.

"One can create an index with all the files of an author that start with
the letter 'A', the letter 'B', etc."  There is one mechanism for that:
the scheme declares prefix levels for the field, :class:`TrieIndex`
materializes them as ordinary index entries, and a prefix lookup is an
ordinary :class:`FieldQuery` whose constraint is a :class:`Prefix`
predicate.  These cases pin it at one-letter and four-letter author
levels, the shape the paper's example uses.
"""

import pytest

from conftest_helpers import build_engine_stack
from repro.core.cache import CachePolicy
from repro.core.engine import LookupError_
from repro.core.fields import ARTICLE_SCHEMA, Record, SchemaError
from repro.core.predicates import Prefix
from repro.core.query import FieldQuery
from repro.core.scheme import FieldPredicates, SchemeValidationError, simple_scheme
from repro.core.trie import TrieIndex


def prefix_query(prefix, field="author"):
    return FieldQuery(ARTICLE_SCHEMA, {field: Prefix(prefix)})


def prefix_scheme(levels=(1, 4)):
    return simple_scheme(
        predicates={
            "author": FieldPredicates(kinds=("prefix",), trie_levels=levels)
        }
    )


def build_stack(paper_records, levels=(1, 4), **service_options):
    service, engine = build_engine_stack(
        prefix_scheme(levels), **service_options
    )
    for record in paper_records:
        service.insert_record(record)
    trie = TrieIndex(service)
    trie.insert_all(paper_records)
    return service, trie, engine


@pytest.fixture
def stack(paper_records):
    return build_stack(paper_records)


class TestPrefixQuery:
    def test_key_is_canonical_and_stable(self):
        query = prefix_query("Jo")
        assert query.key() == "/article[author[name[prefix:Jo]]]"
        assert FieldQuery.parse(ARTICLE_SCHEMA, query.key()) == query

    def test_covers_field_query(self, paper_records):
        query = prefix_query("John")
        smith = FieldQuery.of_record(paper_records[0], ["author"])
        doe = FieldQuery.of_record(paper_records[2], ["author"])
        assert query.covers(smith)
        assert not query.covers(doe)

    def test_covers_record(self, paper_records):
        assert prefix_query("J").covers_record(paper_records[0])
        assert not prefix_query("J").covers_record(paper_records[2])

    def test_does_not_cover_other_fields(self):
        title_only = FieldQuery(ARTICLE_SCHEMA, {"title": "Jaws"})
        assert not prefix_query("J").covers(title_only)

    def test_equality(self):
        a, b, c = prefix_query("J"), prefix_query("J"), prefix_query("Jo")
        assert a == b and hash(a) == hash(b) and a != c

    def test_validation(self):
        with pytest.raises(SchemaError):
            prefix_query("")
        with pytest.raises(SchemaError):
            prefix_query("X", field="publisher")


class TestPrefixIndexConstruction:
    def test_levels_validated(self):
        service, _ = build_engine_stack(simple_scheme())
        with pytest.raises(SchemaError):
            TrieIndex(service)  # nothing declares a level
        with pytest.raises(SchemeValidationError):
            prefix_scheme(levels=(0,))
        with pytest.raises(SchemeValidationError):
            simple_scheme(
                predicates={
                    "publisher": FieldPredicates(
                        kinds=("prefix",), trie_levels=(1,)
                    )
                }
            )

    def test_queries_for_record(self, stack, paper_records):
        _, trie, _ = stack
        chain = [query.key() for query in trie.chain_for(paper_records[0], "author")]
        assert chain[1:-1] == [
            prefix_query("J").key(),
            prefix_query("John").key(),
        ]

    def test_chain_short_to_long_prefix(self, stack, paper_records):
        service, _, _ = stack
        one, four = prefix_query("J"), prefix_query("John")
        assert four.key() in service.index_store.values(one.key())
        exact = FieldQuery.of_record(paper_records[0], ["author"])
        assert exact.key() in service.index_store.values(four.key())

    def test_shared_prefix_entry(self, stack):
        """John_Smith and Alan_Doe differ at letter one; Smith's two
        records share every prefix entry."""
        service, _, _ = stack
        values = service.index_store.values(prefix_query("J").key())
        assert len(values) == len(set(values)) == 1


class TestPrefixSearch:
    def test_explore_prefix_level(self, stack):
        service, _, _ = stack
        answer = service.query_key(prefix_query("A").key(), "user:px")
        assert answer.entries == ["/article[author[name[prefix:Alan]]]"]

    def test_search_from_one_letter(self, stack, paper_records):
        _, _, engine = stack
        trace = engine.search(prefix_query("J"), paper_records[0])
        assert trace.found
        # prefix:J -> prefix:John -> author -> author+title -> file.
        assert trace.interactions == 5

    def test_search_from_longer_prefix(self, stack, paper_records):
        _, _, engine = stack
        trace = engine.search(prefix_query("John"), paper_records[1])
        assert trace.found
        assert trace.interactions == 4

    def test_search_requires_covering(self, stack, paper_records):
        _, _, engine = stack
        with pytest.raises(LookupError_):
            engine.search(prefix_query("J"), paper_records[2])

    def test_unindexed_prefix_not_found(self, stack):
        _, _, engine = stack
        ghost = Record(
            ARTICLE_SCHEMA,
            {"author": "Zoe_Zed", "title": "Zzz", "conf": "X", "year": "2000"},
        )
        trace = engine.search(prefix_query("Z"), ghost)
        assert not trace.found
        # prefix:Z is empty, and so is its generalization: the field
        # root lists no child covering a 'Z' author.
        assert trace.errors == 2

    def test_search_with_cache_enabled(self, paper_records):
        _, _, engine = build_stack(
            paper_records, levels=(1,), cache_policy=CachePolicy.SINGLE
        )
        first = engine.search(prefix_query("J"), paper_records[0])
        second = engine.search(prefix_query("J"), paper_records[0])
        assert first.found and second.found
        assert second.interactions <= first.interactions
