"""Cross-layer consistency: core field semantics vs xmlq XML semantics.

The core layer reasons about records and field queries; the xmlq layer
reasons about XML descriptors and XPath text.  The system is coherent
only if they always agree:

    query.covers_record(record)  ==  matches(descriptor_of(record), query.key())
    query.covers(other)          ==  covers(query.key(), other.key())

These properties are exercised over randomized records and field subsets.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fields import ARTICLE_SCHEMA, Record
from repro.core.query import FieldQuery
from tests.xmlq.evaluator import matches
from tests.xmlq.pattern import covers, descriptor_to_pattern
from tests.xmlq.oracles import descriptor_of

AUTHORS = ["John_Smith", "Alan_Doe", "Wei_Chen"]
TITLES = ["TCP", "IPv6", "Wavelets", "Routing"]
CONFS = ["SIGCOMM", "INFOCOM"]
YEARS = ["1989", "1996"]

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


@given(records, records, field_subsets)
@settings(max_examples=300, deadline=None)
def test_covers_record_equals_xml_matching(query_source, target, fields):
    """Field-level record matching == XPath evaluation on the descriptor."""
    query = FieldQuery.of_record(query_source, fields)
    assert query.covers_record(target) == matches(
        descriptor_of(target), query.key()
    )


@given(records, field_subsets)
@settings(max_examples=200, deadline=None)
def test_msd_key_matches_only_its_own_descriptor(record, fields):
    msd = FieldQuery.msd_of(record)
    assert matches(descriptor_of(record), msd.key())
    projected = FieldQuery.of_record(record, fields)
    assert matches(descriptor_of(record), projected.key())


@given(records, records, field_subsets)
@settings(max_examples=200, deadline=None)
def test_pattern_covering_of_descriptor_agrees(query_source, target, fields):
    """covers(query, descriptor-pattern) == covers_record."""
    query = FieldQuery.of_record(query_source, fields)
    pattern = descriptor_to_pattern(descriptor_of(target))
    assert covers(query.key(), pattern) == query.covers_record(target)


@given(records, field_subsets, field_subsets)
@settings(max_examples=200, deadline=None)
def test_restriction_monotone_in_matching(record, fields_a, fields_b):
    """A query over more fields never matches more descriptors."""
    union = fields_a | fields_b
    narrow = FieldQuery.of_record(record, union)
    broad = FieldQuery.of_record(record, fields_a)
    # broad covers narrow; so anything narrow matches, broad matches.
    assert broad.covers(narrow)
    assert covers(broad.key(), narrow.key())
