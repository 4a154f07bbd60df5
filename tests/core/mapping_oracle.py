"""A record's publication as it was built from field queries, kept as an oracle.

Until :class:`repro.core.query.RecordKeys` replaced it, a record's index
mappings were pairs of :class:`FieldQuery` objects -- one ``of_record``
query per edge end, the MSD built once for the mappings and once more
for the file -- and every key was ``FieldQuery.key()``.  These are
those bodies, over the scheme's edge map and the service's stores, so
tests can compare what publication now writes against them.  They
construct the queries straight from the record's values, as
``msd_of`` / ``of_record`` did, so on the records both accept (every
value exact) they are the old behaviour exactly.
"""

from __future__ import annotations

from repro.core.fields import Record
from repro.core.query import FieldQuery
from repro.core.scheme import MSD_TARGET, IndexScheme
from repro.core.service import FILE_MARK, IndexService, IndexServiceError
from repro.net.message import Message, MessageKind


def _msd(record: Record) -> FieldQuery:
    return FieldQuery(record.schema, dict(record.items()))


def _of_record(record: Record, fields) -> FieldQuery:
    return FieldQuery(record.schema, {name: record[name] for name in fields})


def mappings_for(
    scheme: IndexScheme, record: Record
) -> list[tuple[FieldQuery, FieldQuery]]:
    """All (index query -> more specific query) mappings for a record,
    deduplicated, in edge order."""
    msd = _msd(record)
    mappings: list[tuple[FieldQuery, FieldQuery]] = []
    seen: set[tuple[FieldQuery, FieldQuery]] = set()
    for source, targets in scheme._edges.items():
        source_query = _of_record(record, source)
        for target in targets:
            if target == MSD_TARGET:
                target_query = msd
            else:
                target_query = _of_record(record, target)
            pair = (source_query, target_query)
            if pair not in seen:
                seen.add(pair)
                mappings.append(pair)
    return mappings


def mapping_keys(scheme: IndexScheme, record: Record) -> list[tuple[str, str]]:
    """The oracle's mappings as the key pairs publication writes."""
    return [
        (source.key(), target.key())
        for source, target in mappings_for(scheme, record)
    ]


def shortcut_mapping(
    scheme: IndexScheme, record: Record, fields
) -> tuple[FieldQuery, FieldQuery]:
    keyset = frozenset(fields)
    if not scheme.is_indexed(keyset):
        raise KeyError(f"not an index class: {set(keyset)}")
    return _of_record(record, keyset), _msd(record)


def insert_record(service: IndexService, record: Record) -> FieldQuery:
    msd = _msd(record)
    service.file_store.put(msd.key(), FILE_MARK)
    for source, target in mappings_for(service.scheme, record):
        service.index_store.put(
            source.key(), service._stored_entry(source.key(), target.key())
        )
    return msd


def insert_shortcut_mapping(service: IndexService, record: Record, fields) -> None:
    source, target = shortcut_mapping(service.scheme, record, fields)
    service.index_store.put(
        source.key(), service._stored_entry(source.key(), target.key())
    )


def delete_record(service: IndexService, record: Record) -> None:
    msd = _msd(record)
    if msd.key() not in service.file_store:
        raise IndexServiceError(f"record not stored: {record!r}")
    service.file_store.remove_key(msd.key())
    mappings = mappings_for(service.scheme, record)
    mappings.sort(key=lambda pair: len(pair[1].fields), reverse=True)
    for source, target in mappings:
        key = target.key()
        if key in service.file_store or (
            key in service.index_store and service.index_store.values(key)
        ):
            continue
        source_key = source.key()
        stored = service._stored_entry(source_key, target.key())
        if (
            source_key in service.index_store
            and stored in service.index_store.values(source_key)
        ):
            service.index_store.remove_value(source_key, stored)


def insert_messages(client, record: Record) -> list[Message]:
    """A record's publication as one message per (mapping, replica).

    ``ClusterClient.insert_messages`` groups these by destination daemon;
    each message here is a batch of one ``(store, key, value)`` triple,
    in the order publication places them.
    """
    msd_key = _msd(record).key()
    placed = [
        (node, ("f", msd_key, FILE_MARK))
        for node in client.file_store.responsible_nodes(msd_key)
    ]
    for source, target in mappings_for(client.scheme, record):
        for node in client.index_store.responsible_nodes(source.key()):
            placed.append((node, ("i", source.key(), target.key())))
    return [
        Message(
            kind=MessageKind.INDEX_INSERT,
            source=client.engine.user,
            destination=client._daemon_name(node),
            payload=triple,
        )
        for node, triple in placed
    ]
