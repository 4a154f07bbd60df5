"""Unit tests for indexing schemes (Figure 8)."""

import pytest

from repro.core.fields import ARTICLE_SCHEMA
from repro.core.query import FieldQuery
from repro.core.scheme import (
    MSD_TARGET,
    IndexScheme,
    SchemeValidationError,
    complex_scheme,
    flat_scheme,
    simple_scheme,
)


class TestBuiltinSchemes:
    def test_simple_classes(self):
        scheme = simple_scheme()
        assert scheme.is_indexed(["author"])
        assert scheme.is_indexed(["author", "title"])
        assert scheme.is_indexed(["conf", "year"])
        assert not scheme.is_indexed(["author", "year"])

    def test_flat_everything_points_to_msd(self):
        scheme = flat_scheme()
        for keyset in scheme.index_classes:
            assert scheme.targets_of(keyset) == [MSD_TARGET]

    def test_chain_lengths_match_figure8(self):
        # Interactions to reach the file: flat always 2; simple 3 from
        # single-field entries; complex 4 from an author query.
        assert flat_scheme().chain_length(["author"]) == 2
        assert simple_scheme().chain_length(["author"]) == 3
        assert simple_scheme().chain_length(["author", "title"]) == 2
        assert complex_scheme().chain_length(["author"]) == 4
        assert complex_scheme().chain_length(["title"]) == 3

    def test_entry_classes(self):
        entries = {frozenset(k) for k in simple_scheme().entry_classes()}
        assert frozenset(["author"]) in entries
        assert frozenset(["title"]) in entries
        # Pair classes are targets, not entry points.
        assert frozenset(["author", "title"]) not in entries

    def test_chain_length_unknown_class(self):
        with pytest.raises(KeyError):
            simple_scheme().chain_length(["author", "year"])


class TestValidation:
    def test_edge_must_increase_specificity(self):
        with pytest.raises(SchemeValidationError):
            IndexScheme(
                "bad",
                ARTICLE_SCHEMA,
                {("author", "title"): [("author",)], ("author",): [MSD_TARGET]},
            )

    def test_target_must_be_resolvable(self):
        with pytest.raises(SchemeValidationError):
            IndexScheme(
                "bad", ARTICLE_SCHEMA, {("author",): [("author", "title")]}
            )

    def test_empty_class_rejected(self):
        with pytest.raises(SchemeValidationError):
            IndexScheme("bad", ARTICLE_SCHEMA, {(): [MSD_TARGET]})

    def test_admin_field_rejected(self):
        with pytest.raises(SchemeValidationError):
            IndexScheme("bad", ARTICLE_SCHEMA, {("size",): [MSD_TARGET]})

    def test_class_with_no_targets_rejected(self):
        with pytest.raises(SchemeValidationError):
            IndexScheme("bad", ARTICLE_SCHEMA, {("author",): []})

    def test_custom_scheme_accepted(self):
        scheme = IndexScheme(
            "custom",
            ARTICLE_SCHEMA,
            {
                ("conf",): [("conf", "year"), MSD_TARGET],
                ("conf", "year"): [MSD_TARGET],
            },
        )
        assert scheme.chain_length(["conf"]) == 3


class TestMappingGeneration:
    def test_simple_mappings_for_record(self, paper_records):
        scheme = simple_scheme()
        record = paper_records[0]
        mappings = scheme.mappings_for(record)
        msd = FieldQuery.msd_of(record).key()
        author = FieldQuery.of_record(record, ["author"]).key()
        author_title = FieldQuery.of_record(record, ["author", "title"]).key()
        assert (author, author_title) in mappings
        assert (author_title, msd) in mappings
        # 6 edges, all distinct for one record.
        assert len(mappings) == 6

    def test_every_mapping_respects_covering(self, paper_records):
        for scheme in (simple_scheme(), flat_scheme(), complex_scheme()):
            for record in paper_records:
                for source, target in scheme.mappings_for(record):
                    source = FieldQuery.parse(ARTICLE_SCHEMA, source)
                    target = FieldQuery.parse(ARTICLE_SCHEMA, target)
                    assert source.covers(target)
                    assert source != target

    def test_flat_targets_are_msds(self, paper_records):
        msd = FieldQuery.msd_of(paper_records[0]).key()
        for source, target in flat_scheme().mappings_for(paper_records[0]):
            assert target == msd

    def test_mappings_deduplicated(self):
        scheme = IndexScheme(
            "diamond",
            ARTICLE_SCHEMA,
            {
                ("author",): [("author", "title"), ("author", "title")],
                ("author", "title"): [MSD_TARGET],
            },
        )
        record_mappings = scheme.mappings_for(
            __import__("repro.core.fields", fromlist=["Record"]).Record(
                ARTICLE_SCHEMA,
                {"author": "A", "title": "T", "conf": "C", "year": "1999"},
            )
        )
        assert len(record_mappings) == len(set(record_mappings))


class TestShortcuts:
    def test_shortcut_mapping(self, paper_records):
        scheme = simple_scheme()
        source, target = scheme.shortcut_mapping(paper_records[0], ["author"])
        assert source == FieldQuery.of_record(paper_records[0], ["author"]).key()
        assert target == FieldQuery.msd_of(paper_records[0]).key()

    def test_shortcut_unknown_class(self, paper_records):
        with pytest.raises(KeyError):
            simple_scheme().shortcut_mapping(paper_records[0], ["author", "year"])

    def test_repr(self):
        assert "simple" in repr(simple_scheme())


class TestMultiTargetClasses:
    def test_class_may_resolve_to_msd_and_subclass(self, paper_records):
        """A class can offer both a deep link and a refinement step; the
        chain length is governed by the longest alternative."""
        scheme = IndexScheme(
            "hybrid",
            ARTICLE_SCHEMA,
            {
                ("author",): [("author", "title"), MSD_TARGET],
                ("author", "title"): [MSD_TARGET],
            },
        )
        assert scheme.chain_length(["author"]) == 3
        mappings = scheme.mappings_for(paper_records[0])
        author = FieldQuery.of_record(paper_records[0], ["author"]).key()
        msd = FieldQuery.msd_of(paper_records[0]).key()
        targets_of_author = [
            target for source, target in mappings if source == author
        ]
        assert any(target == msd for target in targets_of_author)
        assert any(target != msd for target in targets_of_author)

    def test_engine_prefers_most_specific_entry(self, paper_records, service_factory):
        """Given both an MSD deep link and a pair entry under one key,
        the engine follows the MSD (fewest remaining steps)."""
        from repro.core.engine import LookupEngine

        scheme = IndexScheme(
            "hybrid",
            ARTICLE_SCHEMA,
            {
                ("author",): [("author", "title"), MSD_TARGET],
                ("author", "title"): [MSD_TARGET],
            },
        )
        service = service_factory(scheme=scheme)
        for record in paper_records:
            service.insert_record(record)
        engine = LookupEngine(service, user="user:hybrid")
        query = FieldQuery(ARTICLE_SCHEMA, {"author": "John_Smith"})
        trace = engine.search(query, paper_records[0])
        assert trace.found and trace.interactions == 2
