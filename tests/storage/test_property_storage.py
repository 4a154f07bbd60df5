"""Property-based tests for the storage layer.

Invariants: the catalog view always equals the union of node-local
stores' authoritative copies; repair() restores primary placement after
arbitrary churn; values are never lost while at least one replica node
survives between repair passes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.ring import IdealRing
from repro.storage.store import DHTStorage

BITS = 16

keys = st.text(alphabet="abcdefgh", min_size=1, max_size=6)
operations = st.lists(
    st.tuples(st.sampled_from(["put", "remove"]), keys, st.integers(0, 3)),
    max_size=40,
)


def build(num_nodes):
    ring = IdealRing(BITS)
    step = (1 << BITS) // num_nodes
    for index in range(num_nodes):
        ring.add_node(index * step + 1)
    return ring


@given(st.integers(2, 12), operations)
@settings(max_examples=80, deadline=None)
def test_catalog_matches_get_results(num_nodes, ops):
    store = DHTStorage(build(num_nodes))
    for op, key, salt in ops:
        if op == "put":
            store.put(key, f"value-{salt}")
        elif key in store and f"value-{salt}" in store.values(key):
            store.remove_value(key, f"value-{salt}")
    for key in {k for _, k, _ in ops}:
        result = store.get(key)
        assert set(result.values) == set(store.values(key))
        assert result.found == (key in store)


@given(st.integers(3, 10), operations, st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_rebalance_restores_placement_after_churn(num_nodes, ops, removals):
    ring = build(num_nodes)
    store = DHTStorage(ring)
    for op, key, salt in ops:
        if op == "put":
            store.put(key, f"value-{salt}")
    victims = ring.node_ids[: min(removals, len(ring.node_ids) - 1)]
    for node in victims:
        ring.remove_node(node)
    store.repair()
    for key in {k for _, k, _ in ops if k in store}:
        result = store.get(key)
        assert result.found
        assert result.node == store.responsible_nodes(key)[0]


@given(st.integers(2, 8), st.lists(keys, min_size=1, max_size=20))
@settings(max_examples=60, deadline=None)
def test_total_entries_consistent(num_nodes, key_list):
    store = DHTStorage(build(num_nodes))
    for index, key in enumerate(key_list):
        store.put(key, f"v{index}")
    assert store.total_entries() == sum(
        len(store.values(key)) for key in set(key_list)
    )
    assert len(store._catalog) == len(set(key_list))
    # With replication=1 node stores partition the catalog.
    assert sum(store.keys_per_node().values()) == len(store._catalog)
