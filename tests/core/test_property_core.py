"""Property-based tests for the core indexing layer.

Key invariants:

- FieldQuery covering is *equivalent* to the tree-pattern homomorphism on
  canonical text (the //-free, *-free fragment where the homomorphism is
  complete);
- canonical keys are injective on distinct queries and stable;
- every search for data that exists succeeds, regardless of query shape,
  scheme, or cache policy, and its interaction count is bounded by the
  scheme's chain length plus generalization overhead.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import CachePolicy
from repro.core.fields import ARTICLE_SCHEMA, Record
from repro.core.query import FieldQuery
from repro.core.scheme import complex_scheme, flat_scheme, simple_scheme
from tests.xmlq.pattern import covers as pattern_covers

AUTHORS = ["John_Smith", "Alan_Doe", "Wei_Chen", "Maria_Garcia"]
TITLES = ["TCP", "IPv6", "Wavelets", "Routing", "Caching"]
CONFS = ["SIGCOMM", "INFOCOM", "ICDCS"]
YEARS = ["1989", "1996", "2001"]

records = st.builds(
    lambda a, t, c, y, s: Record(
        ARTICLE_SCHEMA,
        {"author": a, "title": t, "conf": c, "year": y, "size": str(s)},
    ),
    st.sampled_from(AUTHORS),
    st.sampled_from(TITLES),
    st.sampled_from(CONFS),
    st.sampled_from(YEARS),
    st.integers(10_000, 999_999),
)

field_subsets = st.sets(
    st.sampled_from(["author", "title", "conf", "year"]), min_size=1
)


@st.composite
def query_pairs(draw):
    record = draw(records)
    general = FieldQuery.of_record(record, draw(field_subsets))
    other = draw(records)
    use_same = draw(st.booleans())
    base = record if use_same else other
    specific = FieldQuery.of_record(base, draw(field_subsets))
    return general, specific


class TestCoveringEquivalence:
    @given(query_pairs())
    @settings(max_examples=300, deadline=None)
    def test_field_covering_equals_pattern_containment(self, pair):
        general, specific = pair
        assert general.covers(specific) == pattern_covers(
            general.key(), specific.key()
        )

    @given(records, field_subsets)
    @settings(max_examples=200, deadline=None)
    def test_projection_always_covers_msd(self, record, fields):
        projected = FieldQuery.of_record(record, fields)
        msd = FieldQuery.msd_of(record)
        assert projected.covers(msd)
        assert projected.covers_record(record)

    @given(records, field_subsets)
    @settings(max_examples=200, deadline=None)
    def test_key_parse_roundtrip(self, record, fields):
        query = FieldQuery.of_record(record, fields)
        assert FieldQuery.parse(ARTICLE_SCHEMA, query.key()) == query

    @given(records, records, field_subsets, field_subsets)
    @settings(max_examples=200, deadline=None)
    def test_key_injective(self, r1, r2, f1, f2):
        q1 = FieldQuery.of_record(r1, f1)
        q2 = FieldQuery.of_record(r2, f2)
        assert (q1 == q2) == (q1.key() == q2.key())


class TestSearchTotality:
    @given(
        st.lists(records, min_size=1, max_size=8, unique_by=lambda r: r.values["title"]),
        st.integers(0, 7),
        field_subsets,
        st.sampled_from(["simple", "flat", "complex"]),
        st.sampled_from(["none", "multi", "single", "lru10"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_existing_record_is_findable(
        self, record_list, target_index, fields, scheme_name, cache_name
    ):
        from conftest_helpers import build_engine_stack

        schemes = {
            "simple": simple_scheme,
            "flat": flat_scheme,
            "complex": complex_scheme,
        }
        policy, capacity = CachePolicy.parse(cache_name)
        service, engine = build_engine_stack(
            schemes[scheme_name](), policy, capacity
        )
        for record in record_list:
            service.insert_record(record)
        target = record_list[target_index % len(record_list)]
        query = FieldQuery.of_record(target, fields)
        trace = engine.search(query, target)
        assert trace.found
        # Bounded cost: worst chain (4 for complex) + generalization
        # detours (at most one per index class) + final fetch.
        assert trace.interactions <= 10

    @given(
        st.lists(records, min_size=2, max_size=6, unique_by=lambda r: r.values["title"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_deletion_makes_unreachable_without_breaking_others(
        self, record_list
    ):
        from conftest_helpers import build_engine_stack

        service, engine = build_engine_stack(simple_scheme(), CachePolicy.NONE, None)
        for record in record_list:
            service.insert_record(record)
        victim, survivor = record_list[0], record_list[1]
        service.delete_record(victim)
        gone = engine.search(
            FieldQuery.of_record(victim, ["title"]), victim
        )
        assert not gone.found
        alive = engine.search(
            FieldQuery.of_record(survivor, ["title"]), survivor
        )
        assert alive.found
