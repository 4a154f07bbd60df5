"""Property tests of the partial-order graph against pairwise covering.

``PartialOrderGraph`` keeps the covering relation of its members; these
tests compare its relation tables and chains with ``covers`` run pair by
pair on randomized query sets, and pin the graph's navigation API.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.xmlq.normalize import normalize_xpath
from tests.xmlq.partial_order import PartialOrderGraph
from tests.xmlq.pattern import covers


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
    @given(st.integers(0, 2**31), st.integers(2, 20))
    @settings(max_examples=40, deadline=None)
    def test_relations_match_bruteforce_covering(self, seed, count):
        """more_general/more_specific agree with pairwise covers."""
        rng = random.Random(seed)
        graph = PartialOrderGraph(_random_field_queries(rng, count))
        queries = graph.queries
        for q in queries:
            expected_general = {
                other for other in queries if other != q and covers(other, q)
            }
            expected_specific = {
                other for other in queries if other != q and covers(q, other)
            }
            assert set(graph.more_general(q)) == expected_general
            assert set(graph.more_specific(q)) == expected_specific

    @given(st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_chains_reuse_maintained_reduction(self, seed):
        """chains_to walks exactly the Hasse edges."""
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
        assert isinstance(view, frozenset)
        assert len(view) == 1
        detached = set(view)
        detached.clear()  # mutating a copy must not touch the graph
        assert len(graph.more_general("/article[title[TCP]][year[1996]]")) == 1

    def test_views_support_set_algebra(self):
        broad = "/article[title[TCP]]"
        narrow = "/article[title[TCP]][year[1996]]"
        graph = PartialOrderGraph([broad, narrow])
        view = graph.more_specific(broad)
        assert view == {narrow}
        assert (view | {"extra"}) == {narrow, "extra"}
        assert normalize_xpath(narrow) in view


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

    def test_delta_and_reset(self):
        before = perf.snapshot()
        self._exercise_hot_path()
        increments = perf.delta(before, perf.snapshot())
        assert increments["xpath_parses"] > 0
        assert all(value >= 0 for value in increments.values())
        fresh = perf.PerfCounters()
        assert set(fresh.snapshot()) == set(before)
        assert not any(fresh.snapshot().values())
