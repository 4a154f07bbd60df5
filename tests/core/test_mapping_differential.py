"""Publication from key texts against the field-query oracle.

``IndexScheme.mappings_for`` builds a record's keys from one
:class:`RecordKeys` table of chain texts; ``mapping_oracle`` keeps the
body that built them from :class:`FieldQuery` objects.  On arbitrary
records (two schemas, spaced values, with and without the admin field)
and five scheme shapes the two must agree on the key pairs and their
order, on the per-destination batches a cluster client fans a record
out into (the oracle sends one frame per mapping and replica), and --
through twin services -- on every node's store after any script of
inserts, deletes and shortcut mappings; twin durable clusters fed
batches and single frames end with equal stores and WAL puts.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mapping_oracle as oracle
from conftest_helpers import PERSON_SCHEMA
from repro.core.fields import ARTICLE_SCHEMA, Record
from repro.core.scheme import MSD_TARGET, IndexScheme, build_scheme
from repro.core.service import IndexService, IndexServiceError
from repro.dht.idspace import hash_key
from repro.dht.ring import IdealRing
from repro.net.message import Message, MessageKind
from repro.net.transport import SimulatedTransport
from repro.rpc.cluster import LocalCluster
from repro.rpc.codec import encode_message
from repro.storage.durable import OP_PUT, replay_wal
from repro.storage.store import DHTStorage
from repro.workload.corpus import CorpusConfig, SyntheticCorpus

SCHEMAS = (ARTICLE_SCHEMA, PERSON_SCHEMA)
SHAPES = ("simple", "flat", "complex", "diamond", "hybrid")


def scheme_for(schema, shape: str) -> IndexScheme:
    """Figure 8's three shapes plus two multi-path ones, over the schema's
    four queryable fields by position (``a b c d`` = author title conf
    year on the article schema, where the first three equal the built-ins)."""
    a, b, c, d = schema.field_names
    edges = {
        "simple": {
            (a,): [(a, b)], (b,): [(a, b)], (a, b): [MSD_TARGET],
            (c,): [(c, d)], (d,): [(c, d)], (c, d): [MSD_TARGET],
        },
        "flat": {
            (a,): [MSD_TARGET], (b,): [MSD_TARGET], (a, b): [MSD_TARGET],
            (c,): [MSD_TARGET], (d,): [MSD_TARGET], (c, d): [MSD_TARGET],
        },
        "complex": {
            (a,): [(a, c)], (b,): [(a, b)], (a, b): [MSD_TARGET],
            (a, c): [(a, c, d)], (a, c, d): [MSD_TARGET],
            (c,): [(c, d)], (d,): [(c, d)], (c, d): [MSD_TARGET],
        },
        # Two paths into the full class, which without the admin field
        # *is* the MSD: the ``(abcd; MSD)`` pair then maps a key to itself.
        "diamond": {
            (a,): [(a, b), (a, c), (a, b)], (b,): [(a, b)], (c,): [(a, c)],
            (a, b): [(a, b, c, d)], (a, c): [(a, b, c, d)],
            (a, b, c, d): [MSD_TARGET],
        },
        "hybrid": {
            (a,): [(a, b), MSD_TARGET], (a, b): [MSD_TARGET],
            (c,): [MSD_TARGET, (c, d)], (c, d): [MSD_TARGET],
        },
    }[shape]
    return IndexScheme(shape, schema, edges)


def test_positional_shapes_are_the_builtins_on_the_article_schema():
    for shape in ("simple", "flat", "complex"):
        assert (
            scheme_for(ARTICLE_SCHEMA, shape)._edges
            == build_scheme(shape)._edges
        )


#: Spaces, ``/`` and unicode are ordinary value characters; a small pool
#: makes records share values, hence index entries, which is what
#: deletion's cleanup has to get right.
_TEXT = st.text(alphabet="ab Zé/_.-9", min_size=1, max_size=6)
_VALUE = st.one_of(st.sampled_from(["x", "y y", "é/z"]), _TEXT)


@st.composite
def records(draw, schema=None):
    schema = schema or draw(st.sampled_from(SCHEMAS))
    values = {name: draw(_VALUE) for name in schema.field_names}
    for name in schema.admin:
        if draw(st.booleans()):
            values[name] = draw(_TEXT)
    return Record(schema, values)


def _stack(scheme: IndexScheme) -> IndexService:
    ring = IdealRing(32)
    for index in range(12):
        ring.add_node(hash_key(f"twin-{index}", 32))
    return IndexService(
        scheme.schema,
        scheme,
        DHTStorage(ring, replication=2),
        DHTStorage(ring, replication=2),
        SimulatedTransport(),
    )


def _refused(delete, *args) -> bool:
    try:
        delete(*args)
    except IndexServiceError:
        return True
    return False


def _contents(service: IndexService):
    return [
        (
            dict(store._catalog),
            {node: store.items_at(node) for node in store.protocol.node_ids},
        )
        for store in (service.index_store, service.file_store)
    ]


class TestKeyPairs:
    @settings(max_examples=300, deadline=None)
    @given(record=records(), shape=st.sampled_from(SHAPES))
    def test_same_pairs_in_the_same_order(self, record, shape):
        scheme = scheme_for(record.schema, shape)
        assert scheme.mappings_for(record) == oracle.mapping_keys(scheme, record)

    @settings(max_examples=100, deadline=None)
    @given(record=records(), shape=st.sampled_from(SHAPES), data=st.data())
    def test_same_shortcut_pair(self, record, shape, data):
        scheme = scheme_for(record.schema, shape)
        keyset = data.draw(st.sampled_from(scheme.index_classes))
        source, target = oracle.shortcut_mapping(scheme, record, keyset)
        assert scheme.shortcut_mapping(record, keyset) == (
            source.key(), target.key()
        )

    @pytest.mark.parametrize("shape", ["simple", "flat", "complex"])
    def test_a_synthetic_corpus(self, shape):
        scheme = build_scheme(shape)
        corpus = SyntheticCorpus(CorpusConfig(num_articles=400, seed=30))
        for record in corpus.records:
            assert scheme.mappings_for(record) == oracle.mapping_keys(
                scheme, record
            )


_SCRIPT = st.lists(
    st.tuples(
        st.sampled_from(["insert", "insert", "delete", "shortcut"]),
        st.integers(0, 3),
        st.integers(0, 7),
    ),
    max_size=14,
)


class TestTwinServices:
    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        schema=st.sampled_from(SCHEMAS),
        shape=st.sampled_from(SHAPES),
        script=_SCRIPT,
        data=st.data(),
    )
    def test_equal_node_stores_after_any_script(self, schema, shape, script, data):
        pool = [data.draw(records(schema)) for _ in range(4)]
        scheme = scheme_for(schema, shape)
        classes = scheme.index_classes
        service, twin = _stack(scheme), _stack(scheme)
        for op, which, klass in script:
            record = pool[which]
            if op == "insert":
                assert service.insert_record(record) == oracle.insert_record(
                    twin, record
                )
            elif op == "shortcut":
                keyset = classes[klass % len(classes)]
                service.insert_shortcut_mapping(record, keyset)
                oracle.insert_shortcut_mapping(twin, record, keyset)
            else:
                assert _refused(service.delete_record, record) == _refused(
                    oracle.delete_record, twin, record
                )
            assert _contents(service) == _contents(twin)


@pytest.fixture(scope="module")
def client():
    with LocalCluster(3, replication=2) as cluster:
        client = cluster.client()
        yield client
        client.close()


def _by_destination(messages) -> dict[str, list[str]]:
    """Each destination's ``(store, key, value)`` items, flattened in
    send order; destinations in order of first message."""
    items: dict[str, list[str]] = {}
    for message in messages:
        items.setdefault(message.destination, []).extend(message.payload)
    return items


class TestInsertMessages:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(record=records(), shape=st.sampled_from(SHAPES))
    def test_equal_messages_and_frames(self, client, record, shape):
        """One batch per destination, carrying exactly the oracle's
        per-pair items in the oracle's per-destination order."""
        built_for = client.scheme
        client.scheme = scheme_for(record.schema, shape)
        try:
            batches = client.insert_messages(record)
            expected = oracle.insert_messages(client, record)
        finally:
            client.scheme = built_for
        grouped = _by_destination(expected)
        assert [batch.destination for batch in batches] == list(grouped)
        assert _by_destination(batches) == grouped
        assert [encode_message(batch) for batch in batches] == [
            encode_message(
                Message(
                    kind=MessageKind.INDEX_INSERT,
                    source=client.engine.user,
                    destination=destination,
                    payload=tuple(items),
                )
            )
            for destination, items in grouped.items()
        ]


def _published_state(cluster: LocalCluster):
    """Every daemon's two stores and the puts its WAL journaled, in order
    (membership records carry ephemeral ports and are left out)."""
    return [
        (
            daemon.index_store.items_at(daemon.node_id),
            daemon.file_store.items_at(daemon.node_id),
            [
                op.fields
                for op in replay_wal(daemon.durable.wal_path, repair=False)[0]
                if op.op == OP_PUT
            ],
        )
        for daemon in cluster.daemons
    ]


def test_twin_clusters_hold_and_journal_the_same_after_batches_and_single_frames(
    tmp_path,
):
    """The same records published through per-destination batches into
    one durable cluster and through the oracle's single-triple frames,
    one at a time, into its twin: equal stores and equal WAL puts on
    every daemon, over every scheme shape."""
    corpus = SyntheticCorpus(CorpusConfig(num_articles=6, num_authors=3, seed=11))
    states = []
    for side in ("batches", "single"):
        with LocalCluster(
            4, replication=2, data_root=str(tmp_path / side)
        ) as cluster:
            client = cluster.client()
            try:
                for shape in SHAPES:
                    client.scheme = scheme_for(ARTICLE_SCHEMA, shape)
                    for record in corpus.records:
                        if side == "batches":
                            client.insert_record(record)
                        else:
                            for message in oracle.insert_messages(client, record):
                                client.transport.send(message)
            finally:
                client.close()
            states.append(_published_state(cluster))
    batched, single = states
    assert all(puts for _, _, puts in batched)
    assert batched == single
