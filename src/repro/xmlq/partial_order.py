"""Partial-order graph of queries under the covering relation.

Figure 3 of the paper shows the partial ordering of queries: an edge
``q_i -> q_j`` means ``q_i ⊒ q_j`` (``q_i`` is more specific than or equal
to ``q_j`` -- the paper draws more specific queries above less specific
ones).  This module materializes that graph for a finite set of queries,
computes its transitive reduction (the Hasse diagram, which is what the
paper's figure draws by omitting self and transitive edges), and exposes
the navigation primitives the indexing layer builds on.

Queries are kept in their canonical normalized text form, so equivalent
expressions collapse to a single graph node.

Performance characteristics (the seed recomputed everything per call):

- ``add`` prefilters the pairwise covering checks with pattern
  fingerprints, skipping the homomorphism search for pairs whose label
  sets already rule covering out;
- the Hasse diagram is maintained *incrementally* on ``add`` -- adding a
  query only inserts its own reduction edges and deletes the existing
  edges it short-circuits -- so ``hasse_edges``/``chains_to`` read a
  standing structure instead of recomputing the transitive reduction
  (the seed algorithm survives as ``recompute_hasse_edges`` in
  ``tests/xmlq/oracles.py``, the oracle the property tests compare
  against);
- ``more_general``/``more_specific`` return live frozen views instead of
  copies, and skip normalization when the argument is already a known
  canonical text.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from typing import Iterable, Iterator, Optional

from repro.perf import counters
from repro.xmlq.normalize import normalize_xpath
from repro.xmlq.pattern import TreePattern, covers, pattern_from_xpath


class QuerySetView(AbstractSet):
    """Read-only live view of a query set inside the graph.

    Supports iteration, membership, length, and the standard set
    operators (which return plain sets); call :meth:`copy` for a
    detached mutable ``set``.  The view reflects later graph mutations.
    """

    __slots__ = ("_backing",)

    def __init__(self, backing: set[str]) -> None:
        self._backing = backing

    def __iter__(self) -> Iterator[str]:
        return iter(self._backing)

    def __contains__(self, item: object) -> bool:
        return item in self._backing

    def __len__(self) -> int:
        return len(self._backing)

    @classmethod
    def _from_iterable(cls, iterable: Iterable[str]) -> set[str]:
        # Set-algebra results detach from the graph.
        return set(iterable)

    def copy(self) -> set[str]:
        """A detached mutable copy of the current contents."""
        return set(self._backing)

    def __repr__(self) -> str:
        return f"QuerySetView({sorted(self._backing)!r})"


class PartialOrderGraph:
    """The covering partial order over a finite set of queries."""

    def __init__(self, queries: Optional[Iterable[str]] = None) -> None:
        self._patterns: dict[str, TreePattern] = {}
        # _more_specific[q] = set of queries strictly covered by q
        # (q ⊒ other, q != other).
        self._more_general: dict[str, set[str]] = {}
        self._more_specific: dict[str, set[str]] = {}
        # Incrementally maintained transitive reduction:
        # _hasse[q] = generals of q with no intermediate query between.
        self._hasse: dict[str, set[str]] = {}
        self._hasse_sorted: Optional[list[tuple[str, str]]] = None
        if queries is not None:
            for query in queries:
                self.add(query)

    def add(self, query: str) -> str:
        """Add a query; returns its canonical form (the graph node id)."""
        canonical = self._canonicalize(query)
        if canonical in self._patterns:
            return canonical
        counters.pog_adds += 1
        pattern = pattern_from_xpath(canonical)
        required, available = pattern.fingerprint
        generals: set[str] = set()
        specifics: set[str] = set()
        for other, other_pattern in self._patterns.items():
            other_required, other_available = other_pattern.fingerprint
            # Fingerprint prefilter: a pattern can only cover another if
            # its required labels all occur in the other's label set.
            may_cover_new = other_required <= available
            may_be_covered = required <= other_available
            checks = int(may_cover_new) + int(may_be_covered)
            counters.pog_covers_checks += checks
            counters.pog_prefilter_skips += 2 - checks
            if not checks:
                continue
            if may_cover_new and covers(other_pattern, pattern):
                # Mutual covering (equivalent queries normalization did
                # not collapse, possible for //-queries) simply lands the
                # pair in both direction sets, as in the seed.
                generals.add(other)
                self._more_specific[other].add(canonical)
            if may_be_covered and covers(pattern, other_pattern):
                specifics.add(other)
                self._more_general[other].add(canonical)
        self._more_general[canonical] = generals
        self._more_specific[canonical] = specifics
        self._patterns[canonical] = pattern
        self._update_hasse(canonical, generals, specifics)
        return canonical

    def _update_hasse(
        self, canonical: str, generals: set[str], specifics: set[str]
    ) -> None:
        """Splice the new node into the maintained transitive reduction.

        Three local effects cover everything (proved equal to the full
        recompute by property tests):

        1. every existing edge ``s -> g`` with ``s`` below and ``g``
           above the new node is now transitive through it -- delete;
        2. the new node gets an up-edge to each of its generals that is
           not reachable through another of its generals;
        3. each of its specifics gets an up-edge to it unless another of
           the new node's specifics already sits between them.
        """
        self._hasse_sorted = None
        up: set[str] = set()
        self._hasse[canonical] = up
        for specific in specifics:
            doomed = self._hasse[specific] & generals
            if doomed:
                self._hasse[specific] -= doomed
                counters.pog_hasse_edge_updates += len(doomed)
        more_general = self._more_general
        for general in generals:
            if not any(
                middle != general and general in more_general[middle]
                for middle in generals
            ):
                up.add(general)
                counters.pog_hasse_edge_updates += 1
        for specific in specifics:
            if not (more_general[specific] & specifics):
                self._hasse[specific].add(canonical)
                counters.pog_hasse_edge_updates += 1

    def _canonicalize(self, query: str) -> str:
        """Canonical text of ``query``; skips normalization for texts
        that are already graph nodes (the common hot-path case)."""
        if query in self._patterns:
            return query
        return normalize_xpath(query)

    def _require(self, query: str) -> str:
        """Canonicalize and verify membership, with a helpful KeyError."""
        canonical = self._canonicalize(query)
        if canonical not in self._patterns:
            raise KeyError(
                f"query not in graph: {query!r} "
                f"(canonical form {canonical!r}; graph has "
                f"{len(self._patterns)} queries)"
            )
        return canonical

    def __contains__(self, query: str) -> bool:
        return self._canonicalize(query) in self._patterns

    def __len__(self) -> int:
        return len(self._patterns)

    def __iter__(self) -> Iterator[str]:
        return iter(self._patterns)

    @property
    def queries(self) -> list[str]:
        """All canonical queries in the graph."""
        return list(self._patterns)

    def more_general(self, query: str) -> QuerySetView:
        """Queries that strictly cover ``query`` (are less specific).

        Returns a read-only live view; use ``.copy()`` for a detached
        mutable set.  Raises :class:`KeyError` with the canonical form
        when the query is not a graph node.
        """
        return QuerySetView(self._more_general[self._require(query)])

    def more_specific(self, query: str) -> QuerySetView:
        """Queries strictly covered by ``query`` (are more specific).

        Returns a read-only live view; use ``.copy()`` for a detached
        mutable set.  Raises :class:`KeyError` with the canonical form
        when the query is not a graph node.
        """
        return QuerySetView(self._more_specific[self._require(query)])

    def roots(self) -> list[str]:
        """Most general queries: those covered by no other query."""
        return [q for q in self._patterns if not self._more_general[q]]

    def leaves(self) -> list[str]:
        """Most specific queries: those covering no other query."""
        return [q for q in self._patterns if not self._more_specific[q]]

    def hasse_edges(self) -> list[tuple[str, str]]:
        """Edges ``(specific, general)`` of the transitive reduction.

        These are the arrows of Figure 3: ``q_i -> q_j`` with
        ``q_j ⊒ q_i`` and no intermediate query between them.  Read from
        the incrementally maintained reduction; the sorted list is cached
        until the next mutation.
        """
        if self._hasse_sorted is None:
            self._hasse_sorted = sorted(
                (specific, general)
                for specific, generals in self._hasse.items()
                for general in generals
            )
        return list(self._hasse_sorted)

    def chains_to(self, target: str) -> list[list[str]]:
        """All maximal covering chains ending at ``target``.

        A chain is a path from a root of the Hasse diagram down to
        ``target`` -- the "query chains" of Section V-B, whose last member
        is the MSD.  Walks the maintained reduction directly.
        """
        canonical = self._require(target)
        hasse = self._hasse

        chains: list[list[str]] = []

        def extend(path: list[str]) -> None:
            generals = hasse[path[0]]
            if not generals:
                chains.append(list(path))
                return
            for general in sorted(generals):
                if general in path:
                    continue  # equivalence cycles
                extend([general] + path)

        extend([canonical])
        return chains

    def covers_query(self, general: str, specific: str) -> bool:
        """Covering test between two member queries (cached patterns)."""
        general_pattern = self._patterns[self._require(general)]
        specific_pattern = self._patterns[self._require(specific)]
        return covers(general_pattern, specific_pattern)
