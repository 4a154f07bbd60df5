"""Replica failover, incremental repair, and departed-node hygiene."""


from repro.dht.idspace import hash_key
from repro.dht.ring import IdealRing
from repro.storage.store import DHTStorage, RepairReport

BITS = 32


def build_store(num_nodes=10, replication=3):
    ring = IdealRing(BITS)
    for index in range(num_nodes):
        ring.add_node(hash_key(f"node-{index}", BITS))
    return ring, DHTStorage(ring, replication=replication)


def populate(store, count=40):
    keys = [f"key-{index}" for index in range(count)]
    for key in keys:
        store.put(key, f"value-of-{key}")
    return keys


class TestGetFailover:
    def test_read_survives_crashed_primary(self):
        ring, store = build_store()
        store.put("k", "v")
        primary, *replicas = store.responsible_nodes("k")
        ring.fail_node(primary)
        result = store.get("k")
        assert result.found
        assert result.node in replicas
        assert result.node != primary

    def test_failover_costs_an_extra_hop(self):
        ring, store = build_store()
        store.put("k", "v")
        baseline = store.get("k").hops
        primary = store.responsible_nodes("k")[0]
        ring.fail_node(primary)
        assert store.get("k").hops == baseline + 1

    def test_all_replicas_crashed_not_found(self):
        ring, store = build_store()
        store.put("k", "v")
        for node in store.responsible_nodes("k"):
            ring.fail_node(node)
        result = store.get("k")
        assert not result.found
        assert result.node is None

    def test_recovered_primary_serves_again(self):
        ring, store = build_store()
        store.put("k", "v")
        primary = store.responsible_nodes("k")[0]
        ring.fail_node(primary)
        ring.recover_node(primary)
        assert store.get("k").node == primary


class TestRepair:
    def test_repair_restores_replication_after_departure(self):
        ring, store = build_store()
        keys = populate(store)
        victim = store.responsible_nodes(keys[0])[0]
        ring.remove_node(victim)
        store.drop_node(victim)
        assert store.under_replicated_keys()  # the departure left holes
        report = store.repair()
        assert report.copies_created > 0
        assert report.bytes_copied > 0
        assert store.under_replicated_keys() == []
        for key in keys:
            assert store.get(key).values == (f"value-of-{key}",)

    def test_repair_prunes_stale_copies_after_join(self):
        ring, store = build_store()
        keys = populate(store)
        joiner = hash_key("late-joiner", BITS)
        ring.add_node(joiner)
        report = store.repair()
        # Responsibility shifted toward the joiner: it received copies
        # and the nodes it displaced dropped theirs.
        if report.copies_created:
            assert store.keys_per_node()[joiner] > 0
        held = store.keys_per_node()
        total_copies = sum(held.get(node, 0) for node in ring.node_ids)
        assert total_copies == store.replication * len(keys)

    def test_repair_skips_crashed_nodes_until_recovery(self):
        ring, store = build_store()
        keys = populate(store)
        victim = store.responsible_nodes(keys[0])[0]
        ring.fail_node(victim)
        store.drop_node(victim)  # its copies are lost with the crash
        store.repair()
        # The crashed node cannot receive repair traffic yet.
        assert victim not in store.keys_per_node()
        ring.recover_node(victim)
        report = store.repair()
        assert report.copies_created > 0
        assert store.under_replicated_keys() == []

    def test_repair_on_stable_network_is_a_no_op(self):
        _, store = build_store()
        populate(store)
        store.repair()  # settle any initial placement drift
        report = store.repair()
        assert report == RepairReport()

    def test_drop_node_returns_key_count(self):
        _, store = build_store(replication=1)
        populate(store, count=20)
        occupancy = store.keys_per_node()
        node = max(occupancy, key=occupancy.get)
        assert store.drop_node(node) == occupancy[node]
        assert node not in store.keys_per_node()


class TestNoOrphanedReplicas:
    """Regression (satellite): churn must never leave a key being served
    from a node that already left the overlay."""

    def assert_no_departed_holders(self, ring, store, keys):
        live = set(ring.node_ids)
        for node, count in store.keys_per_node().items():
            assert node in live, (
                f"departed node {node} still physically holds {count} keys"
            )
        for key in keys:
            result = store.get(key)
            assert result.found
            assert result.node in live

    def test_rebalance_leaves_no_orphans(self):
        ring, store = build_store()
        keys = populate(store)
        for name in ("node-1", "node-4"):
            ring.remove_node(hash_key(name, BITS))
        ring.add_node(hash_key("fresh-a", BITS))
        store.repair()
        self.assert_no_departed_holders(ring, store, keys)

    def test_repair_purges_departed_holders(self):
        ring, store = build_store()
        keys = populate(store)
        # Leave without the courtesy drop_node: repair must purge it.
        departed = hash_key("node-2", BITS)
        ring.remove_node(departed)
        report = store.repair()
        assert report.keys_pruned > 0
        self.assert_no_departed_holders(ring, store, keys)

    def test_churn_sequence_never_serves_from_departed(self):
        ring, store = build_store()
        keys = populate(store)
        for round_ in range(6):
            ring.add_node(hash_key(f"joiner-{round_}", BITS))
            oldest = sorted(ring.node_ids)[round_ % len(ring.node_ids)]
            ring.remove_node(oldest)
            store.drop_node(oldest)
            store.repair()
            self.assert_no_departed_holders(ring, store, keys)
