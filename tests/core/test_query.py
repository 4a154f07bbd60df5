"""Unit tests for field queries: covering, restriction, serialization."""

import pytest

from repro.core.fields import ARTICLE_SCHEMA, SchemaError
from repro.core.query import FieldQuery, QueryParseError
from tests.xmlq.pattern import pattern_from_xpath


@pytest.fixture
def smith_tcp(paper_records):
    return FieldQuery.msd_of(paper_records[0])


class TestConstruction:
    def test_msd_constrains_every_field(self, smith_tcp):
        assert smith_tcp.is_msd()
        assert smith_tcp.fields == {"author", "title", "conf", "year", "size"}

    def test_of_record_subset(self, paper_records):
        query = FieldQuery.of_record(paper_records[0], ["author", "year"])
        assert query.fields == {"author", "year"}
        assert query.value("year") == "1989"
        assert query.value("title") is None

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            FieldQuery(ARTICLE_SCHEMA, {})

    def test_unknown_field_rejected(self):
        with pytest.raises(SchemaError):
            FieldQuery(ARTICLE_SCHEMA, {"publisher": "X"})

    def test_items_schema_ordered(self):
        query = FieldQuery(ARTICLE_SCHEMA, {"year": "1989", "author": "A"})
        assert [name for name, _ in query.items] == ["author", "year"]


class TestKeyAndParse:
    def test_key_is_canonical(self):
        query = FieldQuery(ARTICLE_SCHEMA, {"author": "A", "title": "T"})
        from repro.xmlq.normalize import normalize_xpath

        assert normalize_xpath(query.key()) == query.key()

    def test_parse_roundtrip(self, paper_records):
        for record in paper_records:
            for fields in (["author"], ["title", "year"], ["author", "conf"]):
                query = FieldQuery.of_record(record, fields)
                parsed = FieldQuery.parse(ARTICLE_SCHEMA, query.key())
                assert parsed == query

    def test_parse_msd_roundtrip(self, smith_tcp):
        assert FieldQuery.parse(ARTICLE_SCHEMA, smith_tcp.key()) == smith_tcp

    def test_parse_rejects_non_canonical(self):
        with pytest.raises(QueryParseError):
            FieldQuery.parse(ARTICLE_SCHEMA, "/article/author/name/A")
        # (path form, not the folded canonical single-step form)

    def test_parse_rejects_unknown_path(self):
        with pytest.raises(QueryParseError):
            FieldQuery.parse(ARTICLE_SCHEMA, "/article[editor[E]]")

    def test_parse_rejects_wrong_root(self):
        with pytest.raises(QueryParseError):
            FieldQuery.parse(ARTICLE_SCHEMA, "/book[title[T]]")

    def test_parse_rejects_garbage(self):
        with pytest.raises(QueryParseError):
            FieldQuery.parse(ARTICLE_SCHEMA, "not an xpath at all [")

    def test_parse_rejects_comparisons(self):
        with pytest.raises(QueryParseError):
            FieldQuery.parse(ARTICLE_SCHEMA, "/article[year>=1990]")

    def test_equal_queries_equal_keys(self):
        a = FieldQuery(ARTICLE_SCHEMA, {"author": "A", "year": "1999"})
        b = FieldQuery(ARTICLE_SCHEMA, {"year": "1999", "author": "A"})
        assert a == b and a.key() == b.key() and hash(a) == hash(b)


class TestCovering:
    def test_subset_covers(self, paper_records):
        author = FieldQuery.of_record(paper_records[0], ["author"])
        author_title = FieldQuery.of_record(paper_records[0], ["author", "title"])
        msd = FieldQuery.msd_of(paper_records[0])
        assert author.covers(author_title)
        assert author.covers(msd)
        assert author_title.covers(msd)
        assert not author_title.covers(author)

    def test_value_mismatch_does_not_cover(self, paper_records):
        smith = FieldQuery.of_record(paper_records[0], ["author"])
        doe = FieldQuery.of_record(paper_records[2], ["author"])
        assert not smith.covers(doe)
        assert not doe.covers(smith)

    def test_reflexive(self, smith_tcp):
        assert smith_tcp.covers(smith_tcp)

    def test_covers_record(self, paper_records):
        year_1996 = FieldQuery(ARTICLE_SCHEMA, {"year": "1996"})
        assert year_1996.covers_record(paper_records[1])
        assert year_1996.covers_record(paper_records[2])
        assert not year_1996.covers_record(paper_records[0])

    def test_agrees_with_pattern_covering(self, paper_records):
        """Field-level covering must agree with the tree-pattern
        homomorphism on canonical query text."""
        from tests.xmlq.pattern import covers as pattern_covers

        record = paper_records[0]
        subsets = [["author"], ["author", "title"], ["year"], ["conf", "year"]]
        queries = [FieldQuery.of_record(record, fields) for fields in subsets]
        for general in queries:
            for specific in queries:
                assert general.covers(specific) == pattern_covers(
                    general.key(), specific.key()
                )


class TestAlgebra:
    def test_restrict(self, smith_tcp):
        restricted = smith_tcp.restrict(["author", "year"])
        assert restricted.fields == {"author", "year"}
        assert restricted.value("author") == "John_Smith"

    def test_restrict_missing_field(self, paper_records):
        author = FieldQuery.of_record(paper_records[0], ["author"])
        with pytest.raises(SchemaError):
            author.restrict(["title"])

    def test_extend(self, paper_records):
        author = FieldQuery.of_record(paper_records[0], ["author"])
        extended = author.extend({"year": "1989"})
        assert extended.fields == {"author", "year"}

    def test_extend_conflict(self, paper_records):
        author = FieldQuery.of_record(paper_records[0], ["author"])
        with pytest.raises(SchemaError):
            author.extend({"author": "Somebody_Else"})

    def test_to_pattern(self, smith_tcp):
        pattern = pattern_from_xpath(smith_tcp.key())
        assert pattern.size() > 0
