"""Property tests pinning the optimized query algebra to the seed.

The hot-path overhaul (interned patterns, memoized covering, incremental
Hasse maintenance) must be *behaviorally invisible*: these tests compare
the optimized implementations against the seed algorithms, which survive
as ``covers_uncached`` and ``recompute_hasse_edges`` in
``tests/xmlq/oracles.py``, on randomized inputs.  They also enforce the perf-counter invariants
(monotonicity, ``hits + misses == calls``).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.perf import CACHE_TRIPLES
from repro.xmlq.element import Element
from repro.xmlq.normalize import normalize_xpath
from repro.xmlq.partial_order import PartialOrderGraph, QuerySetView
from repro.xmlq.pattern import (
    covers,
    descriptor_to_pattern,
    pattern_from_xpath,
)
from tests.xmlq.oracles import covers_uncached, recompute_hasse_edges

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
    """Random queries biased to sometimes match the descriptor."""
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


class TestMemoizedCoveringMatchesSeed:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_covers_equals_uncached_on_query_pairs(self, data):
        """Interned + memoized covers == fresh uncached evaluation."""
        descriptor = data.draw(descriptors())
        general = data.draw(queries_for(descriptor))
        specific = data.draw(queries_for(descriptor))
        expected = covers_uncached(general, specific)
        # Twice: the first call misses the memo, the second hits it; both
        # must agree with the seed implementation.
        assert covers(general, specific) == expected
        assert covers(general, specific) == expected

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_covers_equals_uncached_on_descriptors(self, data):
        """Memoized covers agrees with the seed on descriptor MSDs too."""
        descriptor = data.draw(descriptors())
        query = data.draw(queries_for(descriptor))
        assert covers(query, descriptor) == covers_uncached(query, descriptor)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_interned_pattern_is_shared_and_equivalent(self, data):
        """Repeated pattern construction returns one sealed object whose
        covering behavior matches a freshly built pattern."""
        descriptor = data.draw(descriptors())
        query = data.draw(queries_for(descriptor))
        first = pattern_from_xpath(query)
        second = pattern_from_xpath(query)
        assert first is second
        assert covers(first, descriptor_to_pattern(descriptor)) == (
            covers_uncached(query, descriptor)
        )

    def test_interned_patterns_are_sealed(self):
        from repro.xmlq.astnodes import Axis

        pattern = pattern_from_xpath("/article[title[TCP]]")
        with pytest.raises(ValueError, match="interned"):
            pattern.add_node(pattern.root, Axis.CHILD, "extra")

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_fingerprint_prefilter_is_sound(self, data):
        """Whenever the label-subset filter would reject, the
        homomorphism search agrees (no false negatives)."""
        descriptor = data.draw(descriptors())
        general = data.draw(queries_for(descriptor))
        specific = data.draw(queries_for(descriptor))
        general_pattern = pattern_from_xpath(general)
        specific_pattern = pattern_from_xpath(specific)
        required, _ = general_pattern.fingerprint
        _, available = specific_pattern.fingerprint
        if not required <= available:
            assert not covers_uncached(general, specific)


def _random_field_queries(rng: random.Random, count: int) -> list[str]:
    """Query texts in the bibliographic family, with deliberate overlap
    so covering relations (and equivalent respellings) actually occur."""
    fields = {
        "author": ["name/A1", "name/A2"],
        "title": ["T1", "T2"],
        "conf": ["SIGCOMM", "ICDCS"],
        "year": ["1996", "2001"],
    }
    queries = []
    for _ in range(count):
        chosen = rng.sample(sorted(fields), rng.randint(1, len(fields)))
        predicates = []
        for name in chosen:
            path = f"{name}/{rng.choice(fields[name])}"
            if rng.random() < 0.3:
                # Equivalent respelling: nested-predicate notation.
                parts = path.split("/")
                nested = parts[-1]
                for tag in reversed(parts[:-1]):
                    nested = f"{tag}[{nested}]"
                predicates.append(f"[{nested}]")
            else:
                predicates.append(f"[{path}]")
        rng.shuffle(predicates)
        queries.append("/article" + "".join(predicates))
    return queries


class TestIncrementalHasseMatchesSeed:
    @given(st.integers(0, 2**31), st.integers(2, 28))
    @settings(max_examples=60, deadline=None)
    def test_hasse_equals_recompute(self, seed, count):
        """Incrementally maintained edges == seed's from-scratch reduction."""
        rng = random.Random(seed)
        graph = PartialOrderGraph(_random_field_queries(rng, count))
        assert graph.hasse_edges() == recompute_hasse_edges(graph)

    @given(st.integers(0, 2**31), st.integers(2, 20))
    @settings(max_examples=40, deadline=None)
    def test_relations_match_bruteforce_covering(self, seed, count):
        """more_general/more_specific agree with pairwise seed covers."""
        rng = random.Random(seed)
        graph = PartialOrderGraph(_random_field_queries(rng, count))
        queries = graph.queries
        for q in queries:
            expected_general = {
                other
                for other in queries
                if other != q and covers_uncached(other, q)
            }
            expected_specific = {
                other
                for other in queries
                if other != q and covers_uncached(q, other)
            }
            assert set(graph.more_general(q)) == expected_general
            assert set(graph.more_specific(q)) == expected_specific

    @given(st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_chains_reuse_maintained_reduction(self, seed):
        """chains_to walks exactly the maintained Hasse edges."""
        rng = random.Random(seed)
        graph = PartialOrderGraph(_random_field_queries(rng, 12))
        edges = set(graph.hasse_edges())
        for leaf in graph.leaves():
            for chain in graph.chains_to(leaf):
                for general, specific in zip(chain, chain[1:]):
                    assert (specific, general) in edges


class TestPartialOrderApi:
    def test_unknown_query_raises_clear_keyerror(self):
        graph = PartialOrderGraph(["/article[title[TCP]]"])
        with pytest.raises(KeyError, match="query not in graph"):
            graph.more_general("/article[title[Missing]]")
        with pytest.raises(KeyError, match="canonical form"):
            graph.more_specific("/article/title/Missing")

    def test_relation_views_are_frozen(self):
        graph = PartialOrderGraph(
            ["/article[title[TCP]]", "/article[title[TCP]][year[1996]]"]
        )
        view = graph.more_general("/article[title[TCP]][year[1996]]")
        assert isinstance(view, QuerySetView)
        assert len(view) == 1
        assert not hasattr(view, "add")
        detached = view.copy()
        assert isinstance(detached, set)
        detached.clear()  # mutating the copy must not touch the graph
        assert len(graph.more_general("/article[title[TCP]][year[1996]]")) == 1

    def test_views_support_set_algebra(self):
        broad = "/article[title[TCP]]"
        narrow = "/article[title[TCP]][year[1996]]"
        graph = PartialOrderGraph([broad, narrow])
        view = graph.more_specific(broad)
        assert view == {narrow}
        assert (view | {"extra"}) == {narrow, "extra"}
        assert normalize_xpath(narrow) in view

    def test_canonical_input_skips_normalization(self):
        graph = PartialOrderGraph()
        canonical = graph.add("/article/title/TCP")
        before = perf.snapshot()
        assert canonical in graph
        graph.more_general(canonical)
        after = perf.snapshot()
        assert after["normalize_calls"] == before["normalize_calls"]


class TestCounterInvariants:
    def _exercise_hot_path(self) -> None:
        queries = _random_field_queries(random.Random(99), 10)
        graph = PartialOrderGraph(queries)
        for q in queries:
            normalize_xpath(q)
            covers(q, queries[0])
        graph.hasse_edges()

    def test_counters_are_monotone(self):
        before = perf.snapshot()
        self._exercise_hot_path()
        middle = perf.snapshot()
        self._exercise_hot_path()
        after = perf.snapshot()
        for name in before:
            assert before[name] <= middle[name] <= after[name]

    def test_cache_hits_plus_misses_equal_calls(self):
        self._exercise_hot_path()
        snap = perf.snapshot()
        for calls_name, hits_name, misses_name in CACHE_TRIPLES:
            assert snap[hits_name] + snap[misses_name] == snap[calls_name], (
                f"{calls_name}: {snap[hits_name]} hits + "
                f"{snap[misses_name]} misses != {snap[calls_name]} calls"
            )

    def test_delta_and_reset(self):
        before = perf.snapshot()
        self._exercise_hot_path()
        increments = perf.delta(before, perf.snapshot())
        assert increments["covers_calls"] > 0
        assert all(value >= 0 for value in increments.values())
        fresh = perf.PerfCounters()
        assert set(fresh.snapshot()) == set(before)
        assert not any(fresh.snapshot().values())
