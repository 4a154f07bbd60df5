"""Importable helpers for core-layer tests (kept out of conftest so
property tests can import them under pytest's rootdir-based sys.path)."""

from __future__ import annotations

from repro.core.cache import CachePolicy
from repro.core.engine import LookupEngine
from repro.core.fields import ARTICLE_SCHEMA, Schema
from repro.core.service import IndexService
from repro.dht.idspace import hash_key
from repro.dht.ring import IdealRing
from repro.net.transport import SimulatedTransport
from repro.storage.store import DHTStorage

#: Sibling leaves under shared parents, three tags deep: a key reader must
#: tell ``author[name[first`` from ``author[name[last`` from ``author[id``.
PERSON_SCHEMA = Schema(
    root="person",
    fields={
        "first": "author/name/first",
        "last": "author/name/last",
        "id": "author/id",
        "city": "city",
    },
    admin={"born": "born"},
)


def build_engine_stack(scheme, cache_policy=CachePolicy.NONE, cache_capacity=None):
    """A small ring + service + engine stack for search tests."""
    ring = IdealRing(64)
    for index in range(16):
        ring.add_node(hash_key(f"node-{index}", 64))
    transport = SimulatedTransport()
    service = IndexService(
        ARTICLE_SCHEMA,
        scheme,
        DHTStorage(ring),
        DHTStorage(ring),
        transport,
        cache_policy=cache_policy,
        cache_capacity=cache_capacity,
    )
    return service, LookupEngine(service, user="user:prop")
