"""Unit tests for the multi-entry replicated storage layer."""

import pytest

from repro.dht.idspace import hash_key
from repro.dht.ring import IdealRing
from repro.storage.store import DHTStorage, RepairReport, StorageError


def make_ring(count=8, bits=32):
    ring = IdealRing(bits)
    for index in range(count):
        ring.add_node(hash_key(f"node-{index}", bits))
    return ring


@pytest.fixture
def store():
    return DHTStorage(make_ring())


class TestPutGet:
    def test_roundtrip(self, store):
        store.put("key-a", "value-1")
        result = store.get("key-a")
        assert result.found
        assert result.values == ("value-1",)

    def test_multiple_entries_per_key(self, store):
        """The extension the paper's index model requires."""
        store.put("author", "msd-1")
        store.put("author", "msd-2")
        store.put("author", "msd-3")
        assert set(store.get("author").values) == {"msd-1", "msd-2", "msd-3"}

    def test_duplicate_value_deduplicated(self, store):
        store.put("k", "v")
        store.put("k", "v")
        assert store.get("k").values == ("v",)

    def test_duplicate_local_value_deduplicated(self, store):
        (node,) = store.responsible_nodes("k")
        store.put("k", "v")
        store.put_local(node, "k", "v")
        assert store.get("k").values == ("v",)
        assert store.values_at(node, "k") == ("v",)

    def test_missing_key(self, store):
        result = store.get("nothing")
        assert not result.found
        assert result.values == ()
        assert result.node is None

    def test_contains(self, store):
        store.put("k", "v")
        assert "k" in store
        assert "other" not in store

    def test_values_catalog_view(self, store):
        store.put("k", "a")
        store.put("k", "b")
        assert store.values("k") == ("a", "b")
        assert store.values("missing") == ()

    def test_put_reports_responsible_node(self, store):
        result = store.put("k", "v")
        assert result.nodes
        assert result.numeric_key == store.numeric_key("k")
        assert store.get("k").node == result.nodes[0]

    def test_placement_follows_hash(self, store):
        result = store.put("k", "v")
        expected = store.protocol.lookup(store.numeric_key("k")).node
        assert result.nodes[0] == expected


class TestRemoval:
    def test_remove_value(self, store):
        store.put("k", "a")
        store.put("k", "b")
        store.remove_value("k", "a")
        assert store.get("k").values == ("b",)

    def test_remove_last_value_drops_key(self, store):
        store.put("k", "a")
        store.remove_value("k", "a")
        assert "k" not in store
        assert not store.get("k").found

    def test_remove_missing_value(self, store):
        store.put("k", "a")
        with pytest.raises(StorageError):
            store.remove_value("k", "zzz")

    def test_remove_key(self, store):
        store.put("k", "a")
        store.put("k", "b")
        store.remove_key("k")
        assert "k" not in store

    def test_remove_missing_key(self, store):
        with pytest.raises(StorageError):
            store.remove_key("ghost")


class TestReplication:
    def test_replicas_on_distinct_nodes(self):
        store = DHTStorage(make_ring(8), replication=3)
        result = store.put("k", "v")
        assert len(set(result.nodes)) == 3

    def test_read_survives_primary_loss(self):
        ring = make_ring(8)
        store = DHTStorage(ring, replication=3)
        primary = store.put("k", "v").nodes[0]
        ring.remove_node(primary)
        assert store.get("k").found

    def test_replication_capped_by_population(self):
        store = DHTStorage(make_ring(2), replication=5)
        assert len(store.put("k", "v").nodes) == 2

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            DHTStorage(make_ring(), replication=0)


class TestRebalance:
    """Placement follows membership: the one maintenance pass,
    ``repair()``, re-places keys after a join or a leave."""

    def test_rebalance_after_join(self):
        ring = make_ring(4)
        store = DHTStorage(ring)
        for index in range(50):
            store.put(f"key-{index}", "v")
        ring.add_node(hash_key("late-joiner", 32))
        report = store.repair()
        assert report.keys_repaired > 0
        for index in range(50):
            result = store.get(f"key-{index}")
            assert result.found
            assert result.node == store.responsible_nodes(f"key-{index}")[0]

    def test_rebalance_after_leave(self):
        ring = make_ring(6)
        store = DHTStorage(ring)
        for index in range(50):
            store.put(f"key-{index}", "v")
        ring.remove_node(ring.node_ids[0])
        store.repair()
        for index in range(50):
            assert store.get(f"key-{index}").found

    def test_rebalance_idempotent(self, store):
        store.put("k", "v")
        store.repair()
        assert store.repair() == RepairReport()


class TestStatistics:
    def test_counts(self, store):
        store.put("k1", "a")
        store.put("k1", "b")
        store.put("k2", "c")
        assert len(store._catalog) == 2
        assert store.total_entries() == 3

    def test_keys_per_node_sums_to_total(self, store):
        for index in range(40):
            store.put(f"key-{index}", "v")
        assert sum(store.keys_per_node().values()) == 40

    def test_entries_on_node(self, store):
        result = store.put("k", "v")
        node = result.nodes[0]
        assert store.entries_on_node(node) == 1
        assert store.keys_per_node() == {node: 1}

    def test_storage_bytes(self, store):
        store.put("ab", "cd")
        assert store.storage_bytes() == 4
        store.put("ab", "ef")
        assert store.storage_bytes() == 8

    def test_storage_bytes_counts_replicas(self):
        store = DHTStorage(make_ring(8), replication=2)
        store.put("ab", "cd")
        assert store.storage_bytes() == 8
