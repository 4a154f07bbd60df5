"""``FieldQuery.select_covering`` picks what the per-entry loop picked.

The engine used to parse, match and rank every entry of every answer
(``select_oracle.select_entry_per_entry``, the old body of
``LookupEngine._select_entry``).  Selection now compares chain-text sets
and answers at once when the target's own MSD is among the entries; the
choice must be the same for *every* entry list -- same winner, the first
of equals, garbage skipped -- from a cold memo and from a warm one.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest_helpers import PERSON_SCHEMA
from repro import perf
from repro.core.fields import ARTICLE_SCHEMA, Record, Schema, SchemaError
from repro.core.predicates import PredicateError, Prefix, Range, Wildcard
from repro.core.query import FieldQuery
from select_oracle import select_entry_per_entry

SCHEMAS = [ARTICLE_SCHEMA, PERSON_SCHEMA]

#: A small alphabet, so entries and targets meet: plain words, numbers
#: (ranges apply), a spaced and a slashed value -- a record's values,
#: which are exact --
RECORD_VALUES = [
    "Alonso", "Alan", "Al", "1996", "1997", "2003", "7",
    "paxos made simple", "TCP/IP",
]
#: and three that read as predicate spellings, as an entry's constraints.
VALUES = RECORD_VALUES + ["prefix:Al", "Al*n", "range:1990:1999"]
#: Texts no decoder accepts: what a poisoned or corrupted answer holds.
GARBAGE = [
    "poison=7", "/article", "/person", "", "~shortcut", "!file", "/article[",
    "/article[year[1996]", "/article[year[1996]][conf[X]]", "/article[year[007]]",
    "/article[title[b]][author[name[a]]]", "/person[city[x]][born[1]]",
    "[year[1996]]", "/article[year[1996]] ", "/article[nope[1]]",
]


def _fresh(schema: Schema) -> Schema:
    """An equal schema with no memo: every example starts cold."""
    return dataclasses.replace(schema)


@st.composite
def targets(draw, schema: Schema) -> Record:
    values = {
        name: draw(st.sampled_from(RECORD_VALUES)) for name in schema.field_names
    }
    for name in schema.admin:
        if draw(st.booleans()):
            values[name] = draw(st.sampled_from(RECORD_VALUES))
    return Record(schema, values)


def _predicates_near(value: str):
    """Constraints that cover ``value``, and ones that just miss it."""
    options = [value, "Alan", "1996", value + "x", f"prefix:{value[:2]}", "prefix:Zz"]
    options += [value[:1] + "*", "*" + value[-1:], "Z*", "*"]
    if value.isdigit():
        number = int(value)
        options += [Range(number - 1, number + 1), Range(number + 1, number + 9)]
    return st.sampled_from(options)


@st.composite
def entry_texts(draw, schema: Schema, target: Record) -> list[str]:
    texts: list[str] = []
    for _ in range(draw(st.integers(0, 12))):
        shape = draw(st.integers(0, 9))
        if shape == 0:
            texts.append(draw(st.sampled_from(GARBAGE)))
            continue
        if shape == 1 and texts:
            texts.append(draw(st.sampled_from(texts)))  # a duplicate
            continue
        names = draw(
            st.lists(st.sampled_from(schema.all_field_names), min_size=1, unique=True)
        )
        constraints = {}
        for name in names:
            value = target.get(name) or draw(st.sampled_from(VALUES))
            # shape 2: exact values of the target only (ties by field count)
            constraints[name] = value if shape == 2 else draw(_predicates_near(value))
        try:
            texts.append(FieldQuery(schema, constraints).key())
        except SchemaError:  # a spelling the grammar reserves
            continue
    if draw(st.booleans()):
        texts.append(FieldQuery.msd_of(target).key())
    return draw(st.permutations(texts))


def _same(chosen, expected) -> bool:
    """Equal queries of equal spelling (bound to twin schemas), or both None."""
    if chosen is None or expected is None:
        return chosen is expected
    return chosen.key() == expected.key() and chosen.items == expected.items


class TestAgainstPerEntryOracle:
    @pytest.mark.parametrize("schema", SCHEMAS, ids=lambda schema: schema.root)
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_same_choice_for_any_entry_list(self, schema, data):
        cold, reference = _fresh(schema), _fresh(schema)
        target = data.draw(targets(cold))
        target_msd = FieldQuery.msd_of(target)
        entries = data.draw(entry_texts(cold, target))
        expected = select_entry_per_entry(
            reference, entries, Record(reference, dict(target.items()))
        )
        chosen = FieldQuery.select_covering(entries, target, target_msd)
        again = FieldQuery.select_covering(entries, target, target_msd)  # warm memo
        assert _same(chosen, expected) and _same(again, expected)

    def test_first_of_equal_rank_wins(self):
        schema = _fresh(ARTICLE_SCHEMA)
        target = Record(
            schema,
            {"author": "Alonso", "title": "T", "conf": "C", "year": "1996", "size": "9"},
        )
        by_year = schema.xpath_for({"year": "1996"})
        by_conf = schema.xpath_for({"conf": "C"})
        msd = FieldQuery.msd_of(target)
        for entries in ([by_year, by_conf], [by_conf, by_year]):
            chosen = FieldQuery.select_covering(entries, target, msd)
            assert chosen.key() == entries[0]
            assert _same(chosen, select_entry_per_entry(schema, entries, target))

    def test_msd_among_the_entries_is_the_answer(self):
        schema = _fresh(ARTICLE_SCHEMA)
        target = Record(
            schema,
            {"author": "Alonso", "title": "T", "conf": "C", "year": "1996", "size": "9"},
        )
        msd = FieldQuery.msd_of(target)
        entries = [schema.xpath_for({"author": "Alonso"}), "poison=7", msd.key()]
        chosen = FieldQuery.select_covering(entries, target, msd)
        assert chosen == msd and chosen.is_msd()
        assert _same(chosen, select_entry_per_entry(schema, entries, target))

    def test_predicate_spelt_target_value_is_matched_field_by_field(self):
        """A target query with a non-exact predicate has no chain set: no
        MSD probe, the old matching.  ``msd_of`` refuses a record value
        that reads as a prefix spelling, so the query is built by hand
        through the constraint DSL."""
        schema = _fresh(ARTICLE_SCHEMA)
        target = Record(
            schema, {"author": "prefix:Al", "title": "T", "conf": "C", "year": "1996"}
        )
        with pytest.raises(PredicateError):
            FieldQuery.msd_of(target)
        msd = FieldQuery(schema, dict(target.items()))
        assert not msd.is_exact()
        entries = [msd.key(), schema.xpath_for({"title": "T", "conf": "C"})]
        chosen = FieldQuery.select_covering(entries, target, msd)
        assert chosen.key() == entries[1]
        assert _same(chosen, select_entry_per_entry(schema, entries, target))


class TestChainSets:
    @pytest.mark.parametrize("schema", SCHEMAS, ids=lambda schema: schema.root)
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_decoded_chain_set_is_one_text_per_exact_field(self, schema, data):
        """What ``_decode`` keeps from its split: per field, the value in
        its frame of ``Schema.key_frames``, less the outer brackets."""
        names = data.draw(
            st.lists(st.sampled_from(schema.all_field_names), min_size=1, unique=True)
        )
        plain = st.text(min_size=1).filter(
            lambda text: not any(mark in text for mark in "*\"'[]=<>")
            and not text.startswith(("prefix:", "range:"))
        )
        values = {name: data.draw(plain) for name in names}
        decoded = FieldQuery._decode(schema, FieldQuery(schema, values).key())
        frames = schema.key_frames
        assert decoded._chains == {
            f"{frames[name][0][1:]}[{value}]{frames[name][1][:-1]}"
            for name, value in values.items()
        }

    def test_non_exact_keys_have_no_chain_set(self):
        for constraint in (Prefix("Al"), Wildcard("A*"), Range(1, 2)):
            built = FieldQuery(ARTICLE_SCHEMA, {"year": constraint, "conf": "C"})
            assert FieldQuery._decode(ARTICLE_SCHEMA, built.key())._chains is None


class TestMemoTraffic:
    def test_memoized_entries_are_not_parsed_again(self):
        schema = _fresh(ARTICLE_SCHEMA)
        target = Record(
            schema,
            {"author": "Alonso", "title": "T", "conf": "C", "year": "1996", "size": "9"},
        )
        msd = FieldQuery.msd_of(target)
        entries = [
            schema.xpath_for({"author": "Alonso", "title": f"T{i}"}) for i in range(20)
        ] + [schema.xpath_for({"author": "Alonso", "title": "T"})]
        before = perf.snapshot()
        first = FieldQuery.select_covering(entries, target, msd)
        cold = perf.delta(before, perf.snapshot())
        assert cold["field_parse_calls"] == cold["field_parse_cache_misses"] == 21
        before = perf.snapshot()
        assert FieldQuery.select_covering(entries, target, msd) is first
        warm = perf.delta(before, perf.snapshot())
        assert warm.get("field_parse_calls", 0) == 0
        assert warm.get("xpath_parses", 0) == 0
