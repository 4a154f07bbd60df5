"""Property-based tests for the xmlq layer.

The central invariant of the whole system is soundness of the covering
relation: whenever ``covers(q', q)`` holds, every descriptor matching
``q`` must match ``q'`` (Section III-B).  These tests check it against
the evaluator on randomly generated descriptors and queries, plus
round-trip and idempotence properties of the parsers and normalizer.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.xmlq.element import Element
from tests.xmlq.evaluator import matches
from repro.xmlq.normalize import normalize_xpath
from tests.xmlq.pattern import covers, descriptor_to_pattern
from tests.xmlq.xmlparse import parse_xml, serialize_xml

TAGS = ["article", "author", "first", "last", "title", "conf", "year", "note"]
VALUES = ["John", "Smith", "TCP", "IPv6", "SIGCOMM", "INFOCOM", "1989", "1996"]


@st.composite
def descriptors(draw, max_depth: int = 3) -> Element:
    """Small random descriptor trees over a fixed vocabulary."""
    tag = draw(st.sampled_from(TAGS))
    if max_depth <= 1 or draw(st.booleans()):
        if draw(st.booleans()):
            return Element(tag, text=draw(st.sampled_from(VALUES)))
        return Element(tag)
    children = draw(
        st.lists(descriptors(max_depth=max_depth - 1), min_size=1, max_size=3)
    )
    return Element(tag, children=children)


@st.composite
def queries_for(draw, descriptor: Element) -> str:
    """Random queries biased to sometimes match the descriptor.

    Builds a query by walking the descriptor and randomly generalizing
    (dropping constraints, substituting ``//`` or ``*``), or occasionally
    mutating a value so mismatches are exercised too.
    """
    rng = random.Random(draw(st.integers(0, 2**31)))

    def project(node: Element) -> str:
        name = node.tag if rng.random() > 0.15 else "*"
        predicates = []
        children = list(node.children)
        rng.shuffle(children)
        for child in children[:2]:
            if rng.random() < 0.55:
                predicates.append(f"[{project(child)}]")
        if node.text is not None and rng.random() < 0.6:
            value = node.text if rng.random() > 0.1 else rng.choice(VALUES)
            predicates.append(f"[{value}]")
        return name + "".join(predicates)

    separator = "//" if rng.random() < 0.2 else "/"
    return separator + project(descriptor)


class TestCoveringSoundness:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_covers_implies_matching(self, data):
        """covers(q', q) and d matches q  =>  d matches q'."""
        descriptor = data.draw(descriptors())
        general = data.draw(queries_for(descriptor))
        specific = data.draw(queries_for(descriptor))
        if covers(general, specific):
            if matches(descriptor, specific):
                assert matches(descriptor, general), (
                    f"covering unsound: {general!r} ⊒ {specific!r} but "
                    f"descriptor matches only the specific query"
                )

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_descriptor_pattern_covering_agrees_with_matching(self, data):
        """covers(q, descriptor) must equal matches(descriptor, q)...

        ... whenever covers says True (homomorphism soundness).  The
        reverse direction (completeness) holds for //-free, *-free
        queries and is exercised by the core-layer property tests.
        """
        descriptor = data.draw(descriptors())
        query = data.draw(queries_for(descriptor))
        if covers(query, descriptor_to_pattern(descriptor)):
            assert matches(descriptor, query)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_covering_reflexive(self, data):
        descriptor = data.draw(descriptors())
        query = data.draw(queries_for(descriptor))
        assert covers(query, query)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_covering_transitive_on_triples(self, data):
        descriptor = data.draw(descriptors())
        a = data.draw(queries_for(descriptor))
        b = data.draw(queries_for(descriptor))
        c = data.draw(queries_for(descriptor))
        if covers(a, b) and covers(b, c):
            assert covers(a, c)


class TestRoundTrips:
    @given(descriptors())
    @settings(max_examples=200, deadline=None)
    def test_xml_serialize_parse_roundtrip(self, descriptor):
        assert parse_xml(serialize_xml(descriptor)) == descriptor

    @given(descriptors())
    @settings(max_examples=100, deadline=None)
    def test_xml_pretty_roundtrip(self, descriptor):
        assert parse_xml(serialize_xml(descriptor, indent=4)) == descriptor

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_normalize_idempotent(self, data):
        descriptor = data.draw(descriptors())
        query = data.draw(queries_for(descriptor))
        once = normalize_xpath(query)
        assert normalize_xpath(once) == once

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_normalize_preserves_matching(self, data):
        descriptor = data.draw(descriptors())
        query = data.draw(queries_for(descriptor))
        assert matches(descriptor, query) == matches(
            descriptor, normalize_xpath(query)
        )

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_parser_str_roundtrip(self, data):
        from repro.xmlq.xpparser import parse_xpath

        descriptor = data.draw(descriptors())
        query = data.draw(queries_for(descriptor))
        parsed = parse_xpath(query)
        assert parse_xpath(str(parsed)) == parsed
