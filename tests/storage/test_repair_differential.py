"""``DHTStorage.repair`` does what the per-key pass did, remembering more.

``repair_oracle.repair_per_key`` is the old body: hash, route and place
every catalog key afresh.  The real pass reads ``h(key)`` from beside
the catalog and places once per primary.  Twin stores -- one repaired by
each -- are driven through the same random joins, leaves, crashes,
recoveries, puts and removes on every substrate; after every pass the
reports, every node's store (order included) and the journal record
sequence must be equal.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht import SUBSTRATES, build_substrate
from repro.dht.idspace import hash_key
from repro.storage.store import DHTStorage
from tests.storage.repair_oracle import repair_per_key

BITS = 16
START_NODES = 8


class SpyJournal:
    """Records every journal call, in order."""

    def __init__(self) -> None:
        self.records: list[tuple] = []

    def record_put(self, *fields) -> None:
        self.records.append(("put", *fields))

    def record_remove_value(self, *fields) -> None:
        self.records.append(("remove_value", *fields))

    def record_remove_key(self, *fields) -> None:
        self.records.append(("remove_key", *fields))

    def record_drop_node(self, *fields) -> None:
        self.records.append(("drop_node", *fields))


class CountingHash:
    """``hash_key`` that counts its calls per text."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}

    def __call__(self, text: str) -> int:
        self.calls[text] = self.calls.get(text, 0) + 1
        return hash_key(text, BITS)


def node_id(serial: int) -> int:
    return hash_key(f"node-{serial}", BITS)


def build(substrate: str, replication: int):
    protocol = build_substrate(
        substrate, sorted({node_id(serial) for serial in range(START_NODES)}), BITS
    )
    hasher = CountingHash()
    store = DHTStorage(protocol, replication=replication, hash_function=hasher)
    journal = SpyJournal()
    store.attach_journal(journal, "index")
    return store, journal, hasher


def stores_of(store: DHTStorage) -> list:
    """Every node's physical store, dict orders included."""
    return [
        (node, [(key, list(values)) for key, values in held.items()])
        for node, held in store._node_stores.items()
    ]


keys = st.sampled_from([f"key-{index}" for index in range(12)])
values = st.sampled_from(["v0", "v1", "v2", "vé"])
operation = st.one_of(
    st.tuples(st.just("put"), keys, values),
    st.tuples(st.just("put_local"), keys, values, st.integers(0, 40)),
    st.tuples(st.just("remove_key"), keys),
    st.tuples(st.just("remove_value"), keys, values),
    st.tuples(st.just("join"), st.integers(START_NODES, 40)),
    st.tuples(st.just("leave"), st.integers(0, 40)),
    st.tuples(st.just("crash"), st.integers(0, 40)),
    st.tuples(st.just("recover"), st.integers(0, 40)),
    st.tuples(st.just("repair")),
)
operations = st.lists(operation, max_size=40)


def apply(store: DHTStorage, operation: tuple) -> None:
    """One non-repair operation, skipped when it does not apply."""
    protocol = store.protocol
    name, *args = operation
    members = protocol.node_ids
    if name == "put":
        store.put(*args)
    elif name == "put_local":
        key, value, pick = args
        store.put_local(members[pick % len(members)], key, value)
    elif name == "remove_key":
        if args[0] in store:
            store.remove_key(args[0])
    elif name == "remove_value":
        key, value = args
        if value in store.values(key):
            store.remove_value(key, value)
    elif name == "join":
        if node_id(args[0]) not in protocol:
            protocol.add_node(node_id(args[0]))
    elif name == "leave":
        if len(members) > 2:
            protocol.remove_node(members[args[0] % len(members)])
    elif name == "crash":
        protocol.fail_node(members[args[0] % len(members)])
    elif name == "recover":
        protocol.recover_node(members[args[0] % len(members)])


@pytest.mark.parametrize("replication", [1, 3])
@pytest.mark.parametrize("substrate", sorted(SUBSTRATES))
@given(script=operations)
@settings(max_examples=40, deadline=None)
def test_same_repair_as_the_per_key_pass(substrate, replication, script):
    real, real_journal, _ = build(substrate, replication)
    twin, twin_journal, _ = build(substrate, replication)
    for operation in [*script, ("repair",)]:
        if operation[0] != "repair":
            apply(real, operation)
            apply(twin, operation)
            continue
        assert real.repair() == repair_per_key(twin)
        assert stores_of(real) == stores_of(twin)
        assert real_journal.records == twin_journal.records
        assert real.under_replicated_keys() == twin.under_replicated_keys()
    # h(key) is remembered for exactly the catalog, and is h(key).
    assert real._numeric == {key: hash_key(key, BITS) for key in real._catalog}
    for key in real._catalog:
        assert real.responsible_nodes(key) == twin.responsible_nodes(key)


class TestRememberedHash:
    def test_one_hash_per_catalog_key_across_three_passes(self):
        store, _, hasher = build("ideal", 3)
        catalog = [f"key-{index}" for index in range(50)]
        for key in catalog:
            store.put(key, "v")
            store.put(key, "w")
        for serial in (50, 51, 52):
            store.protocol.add_node(node_id(serial))
            store.repair()
            store.under_replicated_keys()
        assert hasher.calls == {key: 1 for key in catalog}

    def test_removed_then_put_again_is_hashed_again(self):
        store, _, hasher = build("ideal", 3)
        store.put("k", "v")
        store.put("gone", "v")
        store.remove_key("gone")
        store.remove_value("k", "v")
        assert "k" not in store._numeric and "gone" not in store._numeric
        store.repair()  # visits neither
        store.put("k", "v2")
        assert hasher.calls["k"] == 2
        fresh, _, _ = build("ideal", 3)
        fresh.put("k", "v2")
        assert store.repair() == fresh.repair()
        assert store.keys_per_node() == fresh.keys_per_node()
        assert store.get("k") == fresh.get("k")

    def test_put_local_key_is_hashed_by_its_first_repair_only(self):
        """A daemon's write path (``put_local``) never hashes; a key that
        arrived only that way is hashed by the first pass that meets it."""
        store, _, hasher = build("ideal", 3)
        node = store.protocol.node_ids[0]
        store.put_local(node, "k", "v")
        store.put_local(node, "k", "w")
        assert hasher.calls == {}
        store.repair()
        store.repair()
        assert hasher.calls == {"k": 1}
        assert store.under_replicated_keys() == []
