"""``FieldQuery.parse`` is the exact inverse of ``FieldQuery.key``.

The decoder reads the four canonical spellings by bracket structure and
refuses every other text with ``QueryParseError``.  Three angles:

- round trip over *every constructible* query -- arbitrary unicode
  values, not a bare-word alphabet -- on two schemas (one with sibling
  fields under shared parent tags);
- differential against the general xmlq parser (``key_oracle``), which
  used to sit on this path: wherever it reads a text as a canonical key,
  the decoder returns the equal query, and whatever the decoder accepts
  spells its own key;
- a malformed corpus, including megabyte inputs, raises
  ``QueryParseError`` and nothing else, in linear time.
"""

from __future__ import annotations

import time
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest_helpers import PERSON_SCHEMA
from key_oracle import parse_via_xmlq
from repro import perf
from repro.core.fields import ARTICLE_SCHEMA
from repro.core.predicates import Exact, PredicateError, Prefix, Range, Wildcard
from repro.core.query import FieldQuery, QueryParseError


def _constructible(kind, *args):
    """``kind(*args)``, or reject the example if the grammar reserves it."""
    try:
        return kind(*args)
    except PredicateError:
        assume(False)


predicates = st.one_of(
    st.text(min_size=1).map(lambda value: _constructible(Exact, value)),
    st.from_regex(r"[\w.\-:+]+", fullmatch=True).map(
        lambda value: _constructible(Prefix, value)
    ),
    st.lists(st.text(max_size=6), min_size=2, max_size=4).map(
        lambda parts: _constructible(Wildcard, "*".join(parts))
    ),
    st.tuples(st.integers(), st.integers()).map(
        lambda pair: Range(min(pair), max(pair))
    ),
)


@st.composite
def queries(draw, schema):
    names = draw(
        st.lists(
            st.sampled_from(schema.all_field_names), min_size=1, unique=True
        )
    )
    return FieldQuery(schema, {name: draw(predicates) for name in names})


class TestRoundTrip:
    @pytest.mark.parametrize("schema", [ARTICLE_SCHEMA, PERSON_SCHEMA])
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_parse_inverts_key_for_every_constructible_query(self, schema, data):
        query = data.draw(queries(schema))
        parsed = FieldQuery.parse(schema, query.key())
        assert parsed == query
        assert parsed.key() == query.key()
        assert parsed.predicate_items == query.predicate_items

    @pytest.mark.parametrize(
        "value", ["Computer Networks", "Jane Roe", "TCP/IP", " padded ", "naïve\n"]
    )
    def test_values_the_xpath_lexer_cannot_read_round_trip(self, value):
        query = FieldQuery(ARTICLE_SCHEMA, {"conf": value, "year": "1999"})
        # The lexer refuses the key, or skips the blanks and reads another.
        assert _outcome(parse_via_xmlq, ARTICLE_SCHEMA, query.key()) != query
        assert FieldQuery.parse(ARTICLE_SCHEMA, query.key()) == query

    @pytest.mark.parametrize(
        "kind,value",
        [
            (Exact, "a[b"), (Exact, "a]b"), (Exact, "a=b"), (Exact, "a<b"),
            (Exact, "a>b"), (Wildcard, "a[*"), (Wildcard, "*]"),
        ],
    )
    def test_reserved_characters_are_refused_at_construction(self, kind, value):
        with pytest.raises(PredicateError):
            kind(value)

    def test_decoding_never_reaches_the_xpath_parser(self):
        keys = [
            FieldQuery(ARTICLE_SCHEMA, constraints).key()
            for constraints in (
                {"author": "A_B", "title": "T", "year": "1999", "size": "7"},
                {"author": Prefix("A_")},
                {"author": Wildcard("A*B"), "year": Range(1990, 1999)},
            )
        ]
        schema = replace(ARTICLE_SCHEMA)  # an equal schema, its memo cold
        before = perf.snapshot()
        for key in keys:
            FieldQuery.parse(schema, key)
        increments = perf.delta(before, perf.snapshot())
        assert increments["field_parse_cache_misses"] == len(keys)
        assert increments["xpath_parses"] == 0


def _outcome(reader, schema, text):
    try:
        return reader(schema, text)
    except QueryParseError:
        return None


def _respelled(query):
    """The key of the query's constraints, computed afresh (``parse``
    hands the decoded query the very text it was given as its key)."""
    return query.schema.xpath_for(dict(query.predicate_items))


#: Bare-word queries: the fragment both readers understand.
WORDS = st.from_regex(r"[A-Za-z0-9_.:+\-]{1,6}", fullmatch=True)
bare_predicates = st.one_of(
    WORDS.map(lambda value: _constructible(Exact, value)),
    WORDS.map(Prefix),
    st.tuples(WORDS, WORDS).map(lambda pair: Wildcard(f"{pair[0]}*{pair[1]}")),
    st.tuples(st.integers(-99, 2100), st.integers(0, 50)).map(
        lambda pair: Range(pair[0], pair[0] + pair[1])
    ),
)


@st.composite
def bare_keys(draw):
    names = draw(
        st.lists(
            st.sampled_from(ARTICLE_SCHEMA.all_field_names),
            min_size=1,
            unique=True,
        )
    )
    constraints = {name: draw(bare_predicates) for name in names}
    return FieldQuery(ARTICLE_SCHEMA, constraints).key()


@st.composite
def mutated_keys(draw):
    """A canonical key with a few characters dropped, doubled or swapped
    for grammar characters -- mostly malformed, sometimes another key."""
    text = draw(bare_keys())
    for _ in range(draw(st.integers(1, 3))):
        position = draw(st.integers(0, len(text) - 1))
        edit = draw(st.sampled_from(["drop", "double", "swap"]))
        if edit == "drop":
            text = text[:position] + text[position + 1:]
        elif edit == "double":
            text = text[:position] + text[position] + text[position:]
        else:
            char = draw(st.sampled_from('[]/=<>"*: 0a'))
            text = text[:position] + char + text[position + 1:]
    return text


class TestAgainstXmlqOracle:
    @given(bare_keys())
    @settings(max_examples=300, deadline=None)
    def test_equal_on_every_bare_word_key(self, key):
        assert FieldQuery.parse(ARTICLE_SCHEMA, key) == parse_via_xmlq(
            ARTICLE_SCHEMA, key
        )

    @given(mutated_keys())
    @settings(max_examples=500, deadline=None)
    def test_agree_wherever_the_oracle_reads_a_canonical_key(self, text):
        decoded = _outcome(FieldQuery.parse, ARTICLE_SCHEMA, text)
        oracle = _outcome(parse_via_xmlq, ARTICLE_SCHEMA, text)
        if decoded is not None:
            # The decoder accepts the image of key() and nothing else ...
            assert _respelled(decoded) == text
            # ... and reads it as the xmlq path does, blanks aside: those
            # the lexer skips, while to the decoder they are the value.
            if oracle is not None and " " not in text:
                assert oracle == decoded
        if oracle is not None and _respelled(oracle) == text:
            assert decoded == oracle

    @pytest.mark.parametrize(
        "text",
        [
            "/article[title[T]][author[name[A]]]",       # unsorted predicates
            "/article[ title [ T ] ]",                    # whitespace
            "/article[year<=2000][year>=007]",            # leading zeros
            "/article[year<=2000][year>=+1995]",          # signed spelling
            "/article[author[name='A*']]",                # single quotes
        ],
    )
    def test_spellings_only_the_general_parser_reads(self, text):
        """Non-canonical spellings of real queries: free text, which goes
        through ``normalize_xpath`` (or is refused), never a DHT key."""
        assert parse_via_xmlq(ARTICLE_SCHEMA, text) is not None
        with pytest.raises(QueryParseError):
            FieldQuery.parse(ARTICLE_SCHEMA, text)


MALFORMED = [
    "",
    "/",
    "/article",
    "/article[]",
    "/article[",
    "/article]",
    "article[title[T]]",                                # not rooted
    "/book[title[T]]",                                  # unknown root
    "/article[editor[E]]",                              # unknown path
    "/article[author[T]]",                              # path stops short
    "/article[author[name[first[J]]]]",                 # path runs long
    "/article[title[T]",                                # unbalanced
    "/article[title[T]]]",
    "/article[[title[T]]]",
    "/article[author[name[A]][name[B]]]",               # sibling brackets
    "/article[author[first[J]][last[S]]]",
    "/article[title[T]][title[T]]",                     # duplicate field
    "/article[title[T]][title[U]]",
    "/article[year[1996]][year<=2000][year>=1990]",
    "/article[year>=1995]",                             # one-sided ranges
    "/article[year<=2000]",
    "/article[year<=2000][year>=1995][year>=1996]",     # duplicate bound
    "/article[year<=x][year>=1995]",                    # non-numeric bound
    "/article[year<=1990][year>=1995]",                 # empty interval
    "/article[year<2000][year>1990]",                   # strict operators
    "/article[author[name[prefix:]]]",                  # empty prefix
    "/article[year[range:1995:2000]]",                  # range: leaf
    "/article[author[name[range:1:2]]]",
    '/article[author[name="no_star"]]',                 # comparison w/o '*'
    "/article[author[name=A*]]",                        # unquoted pattern
    '/article[author[name="A*"x]]',
    "/article/author/name/A",                           # path form
    "/article[title[T]] ",
    "/article[title[T]]/x",
]


class TestMalformed:
    @pytest.mark.parametrize("text", MALFORMED)
    def test_rejected_with_query_parse_error(self, text):
        with pytest.raises(QueryParseError):
            FieldQuery.parse(ARTICLE_SCHEMA, text)

    @given(st.text(alphabet='/[]=<>"*:articleyn019 ', max_size=40))
    @settings(max_examples=500, deadline=None)
    def test_arbitrary_text_raises_nothing_else(self, text):
        decoded = _outcome(FieldQuery.parse, ARTICLE_SCHEMA, text)
        assert decoded is None or _respelled(decoded) == text

    @pytest.mark.parametrize(
        "shape",
        [
            lambda n: "[" * n,
            lambda n: "/article" + "[" * n,
            lambda n: "/article[" + "[" * n + "]",
            lambda n: "/article[" + "]" * n,
            lambda n: "/article" + "[title" * (n // 6) + "]" * (n // 6),
            lambda n: "/article[title[T]]" + "[title[T]]" * (n // 10),
            lambda n: "/article[year>=" + "9" * n + "]",
            lambda n: "/article[" + "a" * n + ">b]",
        ],
    )
    def test_megabyte_inputs_fail_in_linear_time(self, shape):
        def seconds(size):
            text = shape(size)
            best = float("inf")
            for _ in range(3):
                started = time.perf_counter()
                with pytest.raises(QueryParseError):
                    FieldQuery.parse(ARTICLE_SCHEMA, text)
                best = min(best, time.perf_counter() - started)
            return best

        small, large = seconds(125_000), seconds(1_000_000)
        assert large < 1.0
        # 8x the input; quadratic work would be 64x.
        assert large < 24 * small + 0.01
