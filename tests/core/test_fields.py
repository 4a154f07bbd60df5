"""Unit tests for schemas, records, and canonical query text."""

import pytest

from key_oracle import xpath_for_normalized
from repro.core.fields import ARTICLE_SCHEMA, Record, Schema, SchemaError
from repro.xmlq.normalize import normalize_xpath
from tests.xmlq.oracles import descriptor_of, record_from_descriptor


class TestSchema:
    def test_article_schema_fields(self):
        assert ARTICLE_SCHEMA.field_names == ("author", "title", "conf", "year")
        assert "size" in ARTICLE_SCHEMA.all_field_names

    def test_path_of(self):
        assert ARTICLE_SCHEMA.path_of("author") == "author/name"
        assert ARTICLE_SCHEMA.path_of("size") == "size"

    def test_unknown_field(self):
        with pytest.raises(SchemaError):
            ARTICLE_SCHEMA.path_of("publisher")

    def test_field_admin_overlap_rejected(self):
        with pytest.raises(SchemaError):
            Schema(root="x", fields={"a": "a"}, admin={"a": "a"})

    def test_empty_root_rejected(self):
        with pytest.raises(SchemaError):
            Schema(root="", fields={"a": "a"})


class TestCanonicalText:
    def test_matches_general_normalizer(self):
        constraints = {"author": "John_Smith", "year": "1989"}
        assert ARTICLE_SCHEMA.xpath_for(constraints) == xpath_for_normalized(
            ARTICLE_SCHEMA, constraints
        )

    def test_order_independent(self):
        a = ARTICLE_SCHEMA.xpath_for({"year": "1989", "author": "X"})
        b = ARTICLE_SCHEMA.xpath_for({"author": "X", "year": "1989"})
        assert a == b

    def test_is_normalized_fixpoint(self):
        text = ARTICLE_SCHEMA.xpath_for({"author": "A", "title": "T"})
        assert normalize_xpath(text) == text

    def test_empty_constraints_rejected(self):
        with pytest.raises(SchemaError):
            ARTICLE_SCHEMA.xpath_for({})

    def test_unknown_constraint_rejected(self):
        with pytest.raises(SchemaError):
            ARTICLE_SCHEMA.xpath_for({"publisher": "X"})

    def test_nested_field_path(self):
        text = ARTICLE_SCHEMA.xpath_for({"author": "A"})
        assert text == "/article[author[name[A]]]"


class TestRecord:
    def test_construction_and_access(self, paper_records):
        record = paper_records[0]
        assert record["author"] == "John_Smith"
        assert record.get("size") == "315635"
        assert record.get("missing-field") is None

    def test_missing_queryable_field_rejected(self):
        with pytest.raises(SchemaError):
            Record(ARTICLE_SCHEMA, {"author": "A"})

    def test_admin_field_optional(self):
        record = Record(
            ARTICLE_SCHEMA,
            {"author": "A", "title": "T", "conf": "C", "year": "1999"},
        )
        assert record.get("size") is None

    def test_unknown_field_rejected(self):
        with pytest.raises(SchemaError):
            Record(
                ARTICLE_SCHEMA,
                {
                    "author": "A", "title": "T", "conf": "C",
                    "year": "1999", "publisher": "P",
                },
            )

    def test_getitem_missing_raises(self):
        record = Record(
            ARTICLE_SCHEMA,
            {"author": "A", "title": "T", "conf": "C", "year": "1999"},
        )
        with pytest.raises(SchemaError):
            record["size"]

    def test_equality_and_hash(self, paper_records):
        twin = Record(ARTICLE_SCHEMA, paper_records[0].values)
        assert twin == paper_records[0]
        assert hash(twin) == hash(paper_records[0])
        assert paper_records[0] != paper_records[1]

    def test_items_in_schema_order(self, paper_records):
        names = [name for name, _ in paper_records[0].items()]
        assert names == ["author", "title", "conf", "year", "size"]


class TestDescriptors:
    def test_descriptor_structure(self, paper_records):
        descriptor = descriptor_of(paper_records[0])
        assert descriptor.tag == "article"
        assert descriptor.findtext("author/name") == "John_Smith"
        assert descriptor.findtext("year") == "1989"

    def test_descriptor_roundtrip(self, paper_records):
        for record in paper_records:
            recovered = record_from_descriptor(ARTICLE_SCHEMA, descriptor_of(record))
            assert recovered == record

    def test_wrong_root_rejected(self):
        from tests.xmlq.element import Element

        with pytest.raises(SchemaError):
            record_from_descriptor(ARTICLE_SCHEMA, Element("book"))

    def test_descriptor_matches_own_msd(self, paper_records):
        from repro.core.query import FieldQuery
        from tests.xmlq.evaluator import matches

        for record in paper_records:
            msd = FieldQuery.msd_of(record)
            assert matches(descriptor_of(record), msd.key())
