"""Shared fixtures: the paper's running example and small stacks."""

from __future__ import annotations

import pytest

from repro.core.cache import CachePolicy
from repro.core.fields import ARTICLE_SCHEMA, Record
from repro.core.scheme import simple_scheme
from repro.core.service import IndexService
from repro.dht.idspace import hash_key
from repro.dht.ring import IdealRing
from repro.net.transport import SimulatedTransport
from repro.storage.store import DHTStorage
from tests.xmlq.xmlparse import parse_xml


@pytest.fixture
def paper_descriptors():
    """The three descriptors of Figure 1 (d1, d2, d3)."""
    d1 = parse_xml(
        "<article><author><first>John</first><last>Smith</last></author>"
        "<title>TCP</title><conf>SIGCOMM</conf><year>1989</year>"
        "<size>315635</size></article>"
    )
    d2 = parse_xml(
        "<article><author><first>John</first><last>Smith</last></author>"
        "<title>IPv6</title><conf>INFOCOM</conf><year>1996</year>"
        "<size>312352</size></article>"
    )
    d3 = parse_xml(
        "<article><author><first>Alan</first><last>Doe</last></author>"
        "<title>Wavelets</title><conf>INFOCOM</conf><year>1996</year>"
        "<size>259827</size></article>"
    )
    return d1, d2, d3


@pytest.fixture
def paper_queries():
    """The six queries of Figure 2 (q1 .. q6)."""
    return (
        "/article[author[first/John][last/Smith]][title/TCP]"
        "[conf/SIGCOMM][year/1989][size/315635]",
        "/article[author[first/John][last/Smith]][conf/INFOCOM]",
        "/article/author[first/John][last/Smith]",
        "/article/title/TCP",
        "/article/conf/INFOCOM",
        "/article/author/last/Smith",
    )


@pytest.fixture
def paper_records():
    """Figure 1's articles as records of the article schema."""
    return [
        Record(
            ARTICLE_SCHEMA,
            {
                "author": "John_Smith",
                "title": "TCP",
                "conf": "SIGCOMM",
                "year": "1989",
                "size": "315635",
            },
        ),
        Record(
            ARTICLE_SCHEMA,
            {
                "author": "John_Smith",
                "title": "IPv6",
                "conf": "INFOCOM",
                "year": "1996",
                "size": "312352",
            },
        ),
        Record(
            ARTICLE_SCHEMA,
            {
                "author": "Alan_Doe",
                "title": "Wavelets",
                "conf": "INFOCOM",
                "year": "1996",
                "size": "259827",
            },
        ),
    ]


def build_ring(num_nodes: int = 16, bits: int = 64) -> IdealRing:
    ring = IdealRing(bits)
    for index in range(num_nodes):
        ring.add_node(hash_key(f"node-{index}", bits))
    return ring


def build_service(
    scheme=None,
    cache_policy: CachePolicy = CachePolicy.NONE,
    cache_capacity=None,
    num_nodes: int = 16,
):
    """A small, fully wired index service for unit tests."""
    ring = build_ring(num_nodes)
    transport = SimulatedTransport()
    service = IndexService(
        ARTICLE_SCHEMA,
        scheme or simple_scheme(),
        DHTStorage(ring),
        DHTStorage(ring),
        transport,
        cache_policy=cache_policy,
        cache_capacity=cache_capacity,
    )
    return service


@pytest.fixture
def small_service():
    return build_service()


@pytest.fixture
def service_factory():
    """Factory fixture: build a wired index service on demand."""
    return build_service


@pytest.fixture
def ring_factory():
    """Factory fixture: build a populated ideal ring on demand."""
    return build_ring
