"""Partial-order-graph invariants over mixed-predicate query sets.

The POG organizes canonical query texts by the homomorphism covering
relation; predicate keys (prefix tags, wildcard comparisons, range bound
pairs) are canonical texts like any other, so the graph must keep its
structural invariants when they are mixed in:

- the Hasse diagram is the transitive reduction of the pairwise
  covering relation;
- the Hasse diagram is acyclic (covering is a partial order on the
  equality/range fragment the oracle decides);
- every maximal chain is actually maximal: it starts at a root and each
  link is a strict covering step with nothing in between.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fields import ARTICLE_SCHEMA
from repro.core.predicates import Exact, Prefix, Range, Wildcard
from repro.core.query import FieldQuery
from tests.xmlq.partial_order import PartialOrderGraph

AUTHORS = ["John_Smith", "Alan_Doe", "Wei_Chen"]
YEARS = [1989, 1996]

#: A small universe of canonical predicate keys to draw query sets from.
_PREDICATE_KEYS = [
    FieldQuery(ARTICLE_SCHEMA, constraints).key()
    for constraints in (
        [{"author": Exact(a)} for a in AUTHORS]
        + [{"author": Prefix(a[:n])} for a in AUTHORS for n in (1, 2, 4)]
        + [{"author": Wildcard("*")}, {"author": Wildcard("A*e")}]
        + [{"year": Exact(str(y))} for y in YEARS]
        + [
            {"year": Range(y - spread, y + spread)}
            for y in YEARS
            for spread in (0, 3, 10)
        ]
        + [{"author": Exact(a), "year": Range(y - 5, y + 5)}
           for a in AUTHORS[:2] for y in YEARS]
        + [{"author": Prefix(a[:2]), "year": Exact(str(y))}
           for a in AUTHORS[:2] for y in YEARS]
    )
]

key_sets = st.sets(st.sampled_from(_PREDICATE_KEYS), min_size=2, max_size=12)


class TestInvariants:
    @given(key_sets)
    @settings(max_examples=100, deadline=None)
    def test_hasse_is_reduction_of_pairwise_covering(self, keys):
        graph = PartialOrderGraph(keys)
        nodes = graph.queries
        above = {
            q: {g for g in nodes if g != q and graph.covers_query(g, q)}
            for q in nodes
        }
        expected = sorted(
            (q, g)
            for q in nodes
            for g in above[q]
            if not any(m != g and g in above[m] for m in above[q])
        )
        assert graph.hasse_edges() == expected

    @given(key_sets)
    @settings(max_examples=100, deadline=None)
    def test_hasse_is_acyclic(self, keys):
        graph = PartialOrderGraph(keys)
        successors: dict[str, set[str]] = {}
        for specific, general in graph.hasse_edges():
            successors.setdefault(specific, set()).add(general)
        state: dict[str, int] = {}

        def visit(node: str) -> None:
            state[node] = 1
            for nxt in successors.get(node, ()):
                assert state.get(nxt) != 1, "cycle through Hasse edges"
                if nxt not in state:
                    visit(nxt)
            state[node] = 2

        for node in list(successors):
            if node not in state:
                visit(node)

    @given(key_sets)
    @settings(max_examples=60, deadline=None)
    def test_chains_are_maximal(self, keys):
        graph = PartialOrderGraph(keys)
        roots = set(graph.roots())
        for leaf in graph.leaves():
            for chain in graph.chains_to(leaf):
                assert chain[0] in roots
                assert chain[-1] == leaf
                for specific, general in zip(chain[1:], chain):
                    # Each link is one strict covering step...
                    assert graph.covers_query(general, specific)
                    # ...with no member strictly in between (that is
                    # exactly the Hasse-edge condition).
                    assert (specific, general) in graph.hasse_edges()
