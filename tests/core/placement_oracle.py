"""Publication as one routed ``put`` per pair, kept as a differential oracle.

Until ``IndexService.insert_records`` published through one placement
pass, ``insert_record`` stored the record's file and then each scheme
mapping with its own ``DHTStorage.put``: hash the key (unless already
hashed), route it, build its successor list, and write each replica.
These are those bodies.  They route every pair afresh and keep no memo,
so comparing stores and journals against them checks everything the
placement pass remembers.
"""

from __future__ import annotations

from repro.core.fields import Record
from repro.core.query import FieldQuery, RecordKeys
from repro.core.service import FILE_MARK, IndexService
from repro.storage.store import DHTStorage


def put(store: DHTStorage, key: str, value: str) -> None:
    numeric = store._numeric.get(key)
    if numeric is None:
        numeric = store._hash(key)
    primary = store.protocol.lookup(numeric).node
    nodes = (
        [primary]
        if store.replication == 1
        else store.protocol.successors(primary, store.replication)
    )
    for node in nodes:
        bucket = store._node_stores.setdefault(node, {}).setdefault(key, [])
        if value not in bucket:
            bucket.append(value)
            if store._journal is not None:
                store._journal.record_put(node, store._journal_store, key, value)
    store._numeric[key] = numeric
    catalog_bucket = store._catalog.setdefault(key, [])
    if value not in catalog_bucket:
        catalog_bucket.append(value)


def insert_record(service: IndexService, record: Record) -> FieldQuery:
    keys = RecordKeys(record)
    put(service.file_store, keys.msd_key, FILE_MARK)
    for source_key, target_key in service.scheme.mappings_for(keys):
        put(
            service.index_store,
            source_key,
            service._stored_entry(source_key, target_key),
        )
    return keys.msd()
