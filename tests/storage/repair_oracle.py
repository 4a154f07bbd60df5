"""The repair pass as it ran per key, kept as a differential oracle.

Until ``DHTStorage.repair`` learnt to place once per primary, this was
its body: for every catalog key, hash the key again, route it again,
re-derive its successor list and ask every replica's liveness.  It
reads nothing the store remembers about a key (no stored ``h(key)``, no
placement cache), so a test that runs it beside the real pass on a twin
store checks everything the real pass remembers.
"""

from __future__ import annotations

from repro.perf import counters
from repro.storage.store import DHTStorage, RepairReport


def responsible_nodes_per_key(store: DHTStorage, key: str) -> list[int]:
    """The ``replication`` nodes that should hold ``key`` right now."""
    protocol = store.protocol
    primary = protocol.lookup(store._hash(key)).node
    if store.replication == 1:
        return [primary]
    ordered = sorted(protocol.node_ids)
    if not ordered:
        return [primary]
    start = ordered.index(primary)
    count = min(store.replication, len(ordered))
    return [ordered[(start + offset) % len(ordered)] for offset in range(count)]


def repair_per_key(store: DHTStorage) -> RepairReport:
    """Incrementally re-replicate under-replicated keys after churn."""
    live = set(store.protocol.node_ids)
    keys_pruned = 0
    for node in list(store._node_stores):
        if node not in live:
            keys_pruned += store.drop_node(node)
    keys_repaired = copies_created = bytes_copied = 0
    placements: dict[str, set[int]] = {}
    for key, stored_values in store._catalog.items():
        targets = responsible_nodes_per_key(store, key)
        placements[key] = set(targets)
        key_bytes = len(key.encode("utf-8"))
        repaired_here = False
        for node in targets:
            if not store.protocol.is_alive(node):
                continue
            node_store = store._node_stores.setdefault(node, {})
            held = node_store.get(key)
            if held is None:
                node_store[key] = list(stored_values)
                copies_created += 1
                repaired_here = True
                bytes_copied += sum(
                    key_bytes + len(value.encode("utf-8"))
                    for value in stored_values
                )
                if store._journal is not None:
                    for value in stored_values:
                        store._journal.record_put(
                            node, store._journal_store, key, value
                        )
            elif len(held) < len(stored_values):
                for value in stored_values:
                    if value not in held:
                        held.append(value)
                        bytes_copied += key_bytes + len(value.encode("utf-8"))
                        if store._journal is not None:
                            store._journal.record_put(
                                node, store._journal_store, key, value
                            )
                repaired_here = True
        if repaired_here:
            keys_repaired += 1
    # Prune copies on live nodes that are no longer responsible for a
    # key (responsibility shifted to a joiner), so occupancy stays
    # truthful.
    for node, node_store in store._node_stores.items():
        stale = [
            key for key in node_store if node not in placements.get(key, ())
        ]
        for key in stale:
            del node_store[key]
            if store._journal is not None:
                store._journal.record_remove_key(node, store._journal_store, key)
        keys_pruned += len(stale)
    counters.storage_repair_keys += keys_repaired
    counters.storage_repair_bytes += bytes_copied
    return RepairReport(
        keys_repaired=keys_repaired,
        copies_created=copies_created,
        bytes_copied=bytes_copied,
        keys_pruned=keys_pruned,
    )
