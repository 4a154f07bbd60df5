"""Partial-order graph of queries under the covering relation.

Figure 3 of the paper shows the partial ordering of queries: an edge
``q_i -> q_j`` means ``q_i ⊒ q_j`` (``q_i`` is more specific than or equal
to ``q_j`` -- the paper draws more specific queries above less specific
ones).  This module materializes that graph for a finite set of queries,
computes its transitive reduction (the Hasse diagram, which is what the
paper's figure draws by omitting self and transitive edges), and exposes
the navigation primitives the indexing layer builds on.

Queries are kept in their canonical normalized text form, so equivalent
expressions collapse to a single graph node.  ``add`` checks covering
both ways against every member, and the Hasse diagram is recomputed from
the covering relation on every read.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.xmlq.normalize import normalize_xpath
from tests.xmlq.pattern import TreePattern, covers, pattern_from_xpath


class PartialOrderGraph:
    """The covering partial order over a finite set of queries."""

    def __init__(self, queries: Optional[Iterable[str]] = None) -> None:
        self._patterns: dict[str, TreePattern] = {}
        # _more_general[q]: the queries strictly covering q (other ⊒ q,
        # other != q); _more_specific[q]: those q strictly covers.
        self._more_general: dict[str, set[str]] = {}
        self._more_specific: dict[str, set[str]] = {}
        for query in queries or ():
            self.add(query)

    def add(self, query: str) -> str:
        """Add a query; returns its canonical form (the graph node id)."""
        canonical = normalize_xpath(query)
        if canonical in self._patterns:
            return canonical
        pattern = pattern_from_xpath(canonical)
        generals: set[str] = set()
        specifics: set[str] = set()
        for other, other_pattern in self._patterns.items():
            # Mutual covering (equivalent queries normalization did not
            # collapse, possible for //-queries) lands the pair in both
            # direction sets.
            if covers(other_pattern, pattern):
                generals.add(other)
                self._more_specific[other].add(canonical)
            if covers(pattern, other_pattern):
                specifics.add(other)
                self._more_general[other].add(canonical)
        self._more_general[canonical] = generals
        self._more_specific[canonical] = specifics
        self._patterns[canonical] = pattern
        return canonical

    def _require(self, query: str) -> str:
        """Canonicalize and verify membership, with a helpful KeyError."""
        canonical = normalize_xpath(query)
        if canonical not in self._patterns:
            raise KeyError(
                f"query not in graph: {query!r} "
                f"(canonical form {canonical!r}; graph has "
                f"{len(self._patterns)} queries)"
            )
        return canonical

    def __contains__(self, query: str) -> bool:
        return normalize_xpath(query) in self._patterns

    def __len__(self) -> int:
        return len(self._patterns)

    def __iter__(self) -> Iterator[str]:
        return iter(self._patterns)

    @property
    def queries(self) -> list[str]:
        """All canonical queries in the graph."""
        return list(self._patterns)

    def more_general(self, query: str) -> frozenset[str]:
        """Queries that strictly cover ``query`` (are less specific).

        Raises :class:`KeyError` with the canonical form when the query
        is not a graph node.
        """
        return frozenset(self._more_general[self._require(query)])

    def more_specific(self, query: str) -> frozenset[str]:
        """Queries strictly covered by ``query`` (are more specific).

        Raises :class:`KeyError` with the canonical form when the query
        is not a graph node.
        """
        return frozenset(self._more_specific[self._require(query)])

    def roots(self) -> list[str]:
        """Most general queries: those covered by no other query."""
        return [q for q in self._patterns if not self._more_general[q]]

    def leaves(self) -> list[str]:
        """Most specific queries: those covering no other query."""
        return [q for q in self._patterns if not self._more_specific[q]]

    def hasse_edges(self) -> list[tuple[str, str]]:
        """Edges ``(specific, general)`` of the transitive reduction, sorted.

        These are the arrows of Figure 3: ``q_i -> q_j`` with
        ``q_j ⊒ q_i`` and no intermediate query between them.
        """
        more_general = self._more_general
        return sorted(
            (query, general)
            for query, generals in more_general.items()
            for general in generals
            if not any(
                middle != general and general in more_general[middle]
                for middle in generals
            )
        )

    def chains_to(self, target: str) -> list[list[str]]:
        """All maximal covering chains ending at ``target``.

        A chain is a path from a root of the Hasse diagram down to
        ``target`` -- the "query chains" of Section V-B, whose last member
        is the MSD.
        """
        canonical = self._require(target)
        up: dict[str, list[str]] = {}
        for specific, general in self.hasse_edges():
            up.setdefault(specific, []).append(general)
        chains: list[list[str]] = []

        def extend(path: list[str]) -> None:
            generals = up.get(path[0])
            if not generals:
                chains.append(path)
                return
            for general in generals:
                if general not in path:  # equivalence cycles
                    extend([general] + path)

        extend([canonical])
        return chains

    def covers_query(self, general: str, specific: str) -> bool:
        """Covering test between two member queries."""
        return covers(
            self._patterns[self._require(general)],
            self._patterns[self._require(specific)],
        )
