"""The byte count of a store as a full scan, kept as an oracle.

``DHTStorage.storage_bytes`` is a running total, kept by every path that
stores or drops a copy.  This is the scan it replaced: the key and
value text of every copy on every node, in UTF-8.
"""

from __future__ import annotations

from repro.storage.store import DHTStorage


def storage_bytes_scan(store: DHTStorage) -> int:
    total = 0
    for held in store._node_stores.values():
        for key, stored_values in held.items():
            key_bytes = len(key.encode("utf-8"))
            for value in stored_values:
                total += key_bytes + len(value.encode("utf-8"))
    return total
