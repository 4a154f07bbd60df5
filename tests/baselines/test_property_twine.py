"""Property tests for the Twine baseline's invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fields import ARTICLE_SCHEMA, Record
from repro.core.query import FieldQuery
from repro.dht.idspace import hash_key
from repro.dht.ring import IdealRing
from repro.net.transport import SimulatedTransport
from repro.storage.store import DHTStorage
from tests.baselines.twine import TwineResolver

records = st.builds(
    lambda a, t, c, y: Record(
        ARTICLE_SCHEMA,
        {"author": f"A{a}", "title": f"T{t}", "conf": f"C{c}", "year": str(y)},
    ),
    st.integers(0, 5),
    st.integers(0, 30),
    st.integers(0, 3),
    st.integers(1990, 1999),
)


def build(max_strand_fields=2):
    ring = IdealRing(32)
    for index in range(8):
        ring.add_node(hash_key(f"peer-{index}", 32))
    return TwineResolver(
        ARTICLE_SCHEMA,
        DHTStorage(ring),
        DHTStorage(ring),
        SimulatedTransport(),
        max_strand_fields=max_strand_fields,
    )


@given(records)
@settings(max_examples=100, deadline=None)
def test_every_strand_covers_its_record(record):
    resolver = build()
    for strand in resolver.strands_for(record):
        assert strand.covers_record(record)


@given(st.lists(records, min_size=1, max_size=10, unique_by=lambda r: r["title"]))
@settings(max_examples=60, deadline=None)
def test_replication_count_is_exact(record_list):
    resolver = build()
    for record in record_list:
        resolver.insert_record(record)
    copies = resolver.copies_per_record()
    total_entries = resolver.description_store.total_entries()
    # Records sharing a strand value (same author etc.) share that
    # strand's entry only if the full description is identical -- it is
    # not (titles are unique) -- so each record holds exactly `copies`
    # entries.
    assert total_entries == copies * len(record_list)


@given(
    st.lists(records, min_size=1, max_size=8, unique_by=lambda r: r["title"]),
    st.integers(0, 7),
    st.sets(st.sampled_from(["author", "title", "conf", "year"]), min_size=1, max_size=2),
)
@settings(max_examples=60, deadline=None)
def test_any_strand_query_finds_any_stored_record(record_list, index, fields):
    resolver = build()
    for record in record_list:
        resolver.insert_record(record)
    target = record_list[index % len(record_list)]
    query = FieldQuery.of_record(target, fields)
    found, interactions = resolver.lookup(query, target, user="user:ptw")
    assert found
    assert interactions == 2
