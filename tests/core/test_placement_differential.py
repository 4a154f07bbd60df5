"""Publication through one placement pass against a routed put per pair.

``IndexService.insert_records`` routes each distinct key once per call
and stores every triple through ``DHTStorage.store_at``;
``placement_oracle`` is the body it replaced, one routed ``put`` per
(key, value) pair.  On arbitrary record batches that share values (hence
keys), over every substrate, replication 1 to 3 and five scheme shapes,
with and without a per-node write-ahead log, both must leave the same
stores: per-node key order, bucket order, catalog order and remembered
``h(key)``, the same byte total, and each node's WAL record sequence.
"""

from __future__ import annotations

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import placement_oracle as oracle
from repro.core.service import IndexService
from repro.dht import SUBSTRATES, build_substrate
from repro.dht.idspace import hash_key
from repro.net.transport import SimulatedTransport
from repro.storage.durable import NodeWalSet, replay_wal
from repro.storage.store import DHTStorage
from test_mapping_differential import SCHEMAS, SHAPES, records, scheme_for
from tests.storage.bytes_oracle import storage_bytes_scan

BITS = 32


def _stack(substrate, replication, scheme, walset) -> IndexService:
    protocol = build_substrate(
        substrate, sorted({hash_key(f"peer-{i}", BITS) for i in range(12)}), BITS
    )
    stores = [DHTStorage(protocol, replication=replication) for _ in range(2)]
    if walset is not None:
        stores[0].attach_journal(walset, "index")
        stores[1].attach_journal(walset, "file")
    return IndexService(
        scheme.schema, scheme, *stores, SimulatedTransport()
    )


def _stores(service: IndexService):
    return [
        (
            [(node, list(held.items())) for node, held in store._node_stores.items()],
            list(store._catalog.items()),
            list(store._numeric.items()),
            storage_bytes_scan(store),
        )
        for store in (service.index_store, service.file_store)
    ]


def _journals(walset: NodeWalSet):
    return [
        (node, [(op.op, op.fields) for op in replay_wal(state.wal_path, repair=False)[0]])
        for node, state in walset._states.items()
    ]


@st.composite
def batches(draw):
    schema = draw(st.sampled_from(SCHEMAS))
    return schema, draw(st.lists(records(schema), min_size=1, max_size=8))


@pytest.mark.parametrize("substrate", sorted(SUBSTRATES))
@given(
    batch=batches(),
    shape=st.sampled_from(SHAPES),
    replication=st.integers(1, 3),
    journaled=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_one_placement_pass_stores_what_a_put_per_pair_did(
    substrate, batch, shape, replication, journaled
):
    schema, published = batch
    scheme = scheme_for(schema, shape)
    with tempfile.TemporaryDirectory() as root:
        walsets = [
            NodeWalSet(f"{root}/{side}", fsync="never") if journaled else None
            for side in ("pass", "oracle")
        ]
        service, twin = (_stack(substrate, replication, scheme, w) for w in walsets)
        service.insert_records(published)
        for record in published:
            oracle.insert_record(twin, record)
        assert _stores(service) == _stores(twin)
        for store in (service.index_store, service.file_store):
            assert store.storage_bytes() == storage_bytes_scan(store)
        if journaled:
            assert _journals(walsets[0]) == _journals(walsets[1])
            for walset in walsets:
                walset.close()


@given(batch=batches())
@settings(max_examples=10, deadline=None)
def test_placing_without_storing_keeps_no_hash(batch):
    """A cluster client's mirror stores place keys and never store them:
    ``h(key)`` is kept by a write alone, so the mirror keeps none."""
    schema, published = batch
    service = _stack("chord", 2, scheme_for(schema, "simple"), None)
    placed = list(service.placements(published, service.scheme))
    assert all(numeric == hash_key(key, BITS) for _, key, _, numeric, _ in placed)
    for store in (service.index_store, service.file_store):
        assert store._numeric == {} and store._catalog == {}
