"""Regression: records whose values the XPath lexer cannot read are found.

``Exact`` always accepted ``"Computer Networks"``, ``"Jane Roe"`` and
``"TCP/IP"``; their keys were stored and indexed, but the user-side parse
of every answer failed, the engine skipped the entry, and each lookup
ended ``found=False`` after one interaction -- silently.  The key decoder
reads values by bracket structure, so such records are reachable from
every index class; a value holding a character the key grammar reserves
now fails loudly, at publish.

So does a value that spells a predicate (``"prefix:TCP"``,
``"range:1:2"``, ``"Al*n"``).  Publication read each value through the
constraint DSL, so such a record was stored under a non-exact MSD: a
prefix or range MSD that does not cover its own record (lookups by
author or conf ended ``found=False`` with ``gave_up=False``), a wildcard
MSD that also matched ``Alan``.  A record's values are exact.
"""

from __future__ import annotations

import pytest

from repro.core.engine import LookupEngine
from repro.core.fields import ARTICLE_SCHEMA, Record
from repro.core.predicates import PredicateError
from repro.core.query import FieldQuery
from repro.rpc.cluster import LocalCluster

RECORDS = [
    Record(
        ARTICLE_SCHEMA,
        {
            "author": "Jane Roe",
            "title": "TCP/IP",
            "conf": "Computer Networks",
            "year": "1999",
            "size": "2048",
        },
    ),
    Record(
        ARTICLE_SCHEMA,
        {
            "author": "Jane Roe",
            "title": "Paxos made simple",
            "conf": "Computer Networks",
            "year": "2001",
            "size": "4096",
        },
    ),
]


def _assert_found_from_every_index_class(scheme, search):
    for record in RECORDS:
        for keyset in scheme.index_classes:
            query = FieldQuery.msd_of(record).restrict(sorted(keyset))
            trace = search(query, record)
            assert trace.found, f"{record!r} not found from {sorted(keyset)}"


def test_found_from_every_index_class_in_memory(small_service):
    for record in RECORDS:
        small_service.insert_record(record)
    engine = LookupEngine(small_service, user="user:spaced")
    _assert_found_from_every_index_class(small_service.scheme, engine.search)


def test_found_from_every_index_class_over_the_wire():
    with LocalCluster(3, substrate="chord", scheme="simple") as cluster:
        client = cluster.client()
        try:
            for record in RECORDS:
                client.insert_record(record)
            _assert_found_from_every_index_class(client.scheme, client.search)
        finally:
            client.close()


@pytest.mark.parametrize("title", ["a[b", "a]b", "a=b", "x<y", "x>y"])
def test_reserved_value_fails_at_insert(small_service, title):
    record = Record(
        ARTICLE_SCHEMA,
        {"author": "A", "title": title, "conf": "C", "year": "1", "size": "1"},
    )
    with pytest.raises(PredicateError):
        small_service.insert_record(record)


#: Values that read as a prefix, a range and a wildcard in the constraint DSL.
PREDICATE_SPELLINGS = ["prefix:TCP", "range:1:2", "Al*n"]


def _spelling_record(title: str) -> Record:
    return Record(
        ARTICLE_SCHEMA,
        {"author": "A", "title": title, "conf": "C", "year": "1", "size": "1"},
    )


@pytest.mark.parametrize("title", PREDICATE_SPELLINGS)
def test_predicate_spelling_fails_at_insert_in_memory(small_service, title):
    with pytest.raises(PredicateError):
        small_service.insert_record(_spelling_record(title))
    assert small_service.index_store.total_entries() == 0
    assert small_service.file_store.total_entries() == 0


def test_predicate_spelling_fails_at_insert_over_the_wire():
    with LocalCluster(3, substrate="chord", scheme="simple") as cluster:
        client = cluster.client()
        try:
            for title in PREDICATE_SPELLINGS:
                with pytest.raises(PredicateError):
                    client.insert_record(_spelling_record(title))
            for daemon in cluster.daemons:
                assert daemon.index_store.total_entries() == 0
                assert daemon.file_store.total_entries() == 0
        finally:
            client.close()
