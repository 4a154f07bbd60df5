"""Predicate queries through FieldQuery: round-trip, covering, oracle.

Satellite coverage for the algebra refactor:

- property test ``parse(key(q)) == q`` under hypothesis over all four
  predicate kinds (and mixed conjunctions);
- malformed ``prefix:`` / range spellings raise ``QueryParseError``;
- predicate covering pinned against the ``tests.xmlq.pattern.covers`` tree-pattern
  homomorphism oracle on the fragments where both apply: full agreement
  on the exact/range fragment (the oracle understands the comparison
  pair numerically), oracle ⟹ algebra on the prefix fragment (the
  ``prefix:`` tag is an opaque label to the homomorphism, so the oracle
  only confirms the equality sub-relation).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fields import ARTICLE_SCHEMA, Record, SchemaError
from repro.core.predicates import Exact, Prefix, Range, Wildcard
from repro.core.query import FieldQuery, QueryParseError
from tests.xmlq.pattern import covers

AUTHORS = ["John_Smith", "Alan_Doe", "Wei_Chen", "Maria_Garcia"]
TITLES = ["TCP", "IPv6", "Wavelets", "Routing", "Caching"]
YEARS = [1989, 1996, 2001]

author_predicates = st.one_of(
    st.sampled_from(AUTHORS).map(Exact),
    st.sampled_from(AUTHORS).flatmap(
        lambda a: st.integers(1, len(a)).map(lambda n: Prefix(a[:n]))
    ),
    st.sampled_from(AUTHORS).map(lambda a: Wildcard(f"{a[:2]}*{a[-1]}")),
    st.just(Wildcard("*")),
)
title_predicates = st.one_of(
    st.sampled_from(TITLES).map(Exact),
    st.sampled_from(TITLES).flatmap(
        lambda t: st.integers(1, len(t)).map(lambda n: Prefix(t[:n]))
    ),
)
year_predicates = st.one_of(
    st.sampled_from([str(y) for y in YEARS]).map(Exact),
    st.tuples(st.sampled_from(YEARS), st.integers(0, 6), st.integers(0, 6)).map(
        lambda t: Range(t[0] - t[1], t[0] + t[2])
    ),
)


@st.composite
def predicate_queries(draw):
    constraints = {}
    if draw(st.booleans()):
        constraints["author"] = draw(author_predicates)
    if draw(st.booleans()):
        constraints["title"] = draw(title_predicates)
    if draw(st.booleans()) or not constraints:
        constraints["year"] = draw(year_predicates)
    return FieldQuery(ARTICLE_SCHEMA, constraints)


class TestRoundTrip:
    @given(predicate_queries())
    @settings(max_examples=300, deadline=None)
    def test_parse_inverts_key(self, query):
        parsed = FieldQuery.parse(ARTICLE_SCHEMA, query.key())
        assert parsed == query
        assert parsed.key() == query.key()
        assert dict(parsed.predicate_items) == dict(query.predicate_items)

    @pytest.mark.parametrize(
        "constraints,key",
        [
            ({"author": Exact("Alan_Doe")}, "/article[author[name[Alan_Doe]]]"),
            ({"author": Prefix("Al")}, "/article[author[name[prefix:Al]]]"),
            ({"author": Wildcard("Al*n")}, '/article[author[name="Al*n"]]'),
            ({"year": Range(1995, 2000)}, "/article[year<=2000][year>=1995]"),
            ({"author": Wildcard("*")}, '/article[author[name="*"]]'),
        ],
    )
    def test_canonical_spellings(self, constraints, key):
        query = FieldQuery(ARTICLE_SCHEMA, constraints)
        assert query.key() == key
        assert FieldQuery.parse(ARTICLE_SCHEMA, key) == query


class TestMalformedRejection:
    @pytest.mark.parametrize(
        "key",
        [
            "/article[author[name[prefix:]]]",          # empty prefix
            "/article[author[name[range:1995:2000]]]",  # range leaf spelling
            "/article[year[range:1995:2000]]",
            "/article[year>=1995]",                      # missing upper bound
            "/article[year<=2000]",                      # missing lower bound
            "/article[year>=1995][year>=1996]",          # duplicate bound
            "/article[year<=x][year>=1995]",             # non-numeric bound
            "/article[year<=1990][year>=1995]",          # empty interval
            '/article[author[name="no_star"]]',          # comparison w/o '*'
        ],
    )
    def test_rejected(self, key):
        with pytest.raises(QueryParseError):
            FieldQuery.parse(ARTICLE_SCHEMA, key)


class TestCoveringOracle:
    @given(predicate_queries(), predicate_queries())
    @settings(max_examples=300, deadline=None)
    def test_oracle_implies_algebra(self, general, specific):
        # The homomorphism treats prefix:/wildcard spellings as opaque
        # labels, so whatever covering it *can* prove (equality-style
        # embeddings, range containment) the algebra must also accept.
        if covers(general.key(), specific.key()):
            assert general.covers(specific)

    @st.composite
    @staticmethod
    def exact_range_queries(draw):
        constraints = {}
        if draw(st.booleans()):
            constraints["author"] = Exact(draw(st.sampled_from(AUTHORS)))
        if draw(st.booleans()) or not constraints:
            constraints["year"] = draw(year_predicates)
        return FieldQuery(ARTICLE_SCHEMA, constraints)

    @given(exact_range_queries(), exact_range_queries())
    @settings(max_examples=300, deadline=None)
    def test_exact_range_fragment_agrees(self, general, specific):
        # Comparison predicates are understood numerically on both
        # sides, so the exact/range fragment agrees in both directions.
        assert general.covers(specific) == covers(
            general.key(), specific.key()
        )


class TestAlgebraOnQueries:
    record = Record(
        ARTICLE_SCHEMA,
        {
            "author": "Alan_Doe",
            "title": "Wavelets",
            "conf": "INFOCOM",
            "year": "1996",
            "size": "100",
        },
    )

    def test_covers_record_through_predicates(self):
        query = FieldQuery(
            ARTICLE_SCHEMA,
            {"author": Prefix("Al"), "year": Range(1990, 2000)},
        )
        assert query.covers_record(self.record)
        assert not FieldQuery(
            ARTICLE_SCHEMA, {"author": Prefix("J")}
        ).covers_record(self.record)

    def test_specialize_replaces_predicates_with_values(self):
        query = FieldQuery(
            ARTICLE_SCHEMA,
            {"author": Prefix("Al"), "year": Range(1990, 2000)},
        )
        specialized = query.specialize(self.record)
        assert specialized.is_exact()
        assert specialized == FieldQuery.of_record(
            self.record, ["author", "year"]
        )

    def test_specialize_requires_coverage(self):
        query = FieldQuery(ARTICLE_SCHEMA, {"author": Prefix("J")})
        with pytest.raises(SchemaError):
            query.specialize(self.record)

    def test_specificity_orders_exact_above_predicates(self):
        exact = FieldQuery(ARTICLE_SCHEMA, {"author": Exact("Alan_Doe")})
        prefix = FieldQuery(ARTICLE_SCHEMA, {"author": Prefix("Alan")})
        wild = FieldQuery(ARTICLE_SCHEMA, {"author": Wildcard("Al*")})
        assert exact.specificity() > prefix.specificity()
        assert prefix.specificity() > wild.specificity()
        two_fields = FieldQuery(
            ARTICLE_SCHEMA, {"author": Prefix("A"), "year": Range(1, 2)}
        )
        assert two_fields.specificity() > exact.specificity()

    def test_is_exact(self):
        assert FieldQuery(ARTICLE_SCHEMA, {"author": "Alan_Doe"}).is_exact()
        assert not FieldQuery(
            ARTICLE_SCHEMA, {"author": Prefix("Al")}
        ).is_exact()
