"""The seed's query algebra, kept as the oracles the optimized one is
compared against.

``repro.xmlq.covers`` interns patterns, memoizes verdicts and prefilters
on fingerprints; ``PartialOrderGraph`` maintains its Hasse diagram
incrementally.  Both must stay behaviourally invisible, so the
algorithms they replaced survive here -- not on the library's public
surface -- for the property tests to compare against.
"""

from __future__ import annotations

from typing import Union

from repro.xmlq.astnodes import LocationPath
from repro.xmlq.element import Element
from repro.xmlq.partial_order import PartialOrderGraph
from repro.xmlq.pattern import (
    TreePattern,
    _build_pattern,
    _Homomorphism,
    descriptor_to_pattern,
)
from repro.xmlq.xpparser import parse_xpath


def covers_uncached(
    general: Union[str, LocationPath, TreePattern],
    specific: Union[str, LocationPath, TreePattern, Element],
) -> bool:
    """Reference covering check: no interning, memo, or prefilter."""
    general_pattern = _fresh_pattern(general)
    if isinstance(specific, Element):
        specific_pattern = descriptor_to_pattern(specific)
    else:
        specific_pattern = _fresh_pattern(specific)
    return _Homomorphism(general_pattern, specific_pattern).exists()


def _fresh_pattern(query: Union[str, LocationPath, TreePattern]) -> TreePattern:
    if isinstance(query, TreePattern):
        return query
    if isinstance(query, str):
        return _build_pattern(parse_xpath(query))
    return _build_pattern(query)


def recompute_hasse_edges(graph: PartialOrderGraph) -> list[tuple[str, str]]:
    """The seed's from-scratch transitive reduction of ``graph``.

    Kept verbatim so property tests can assert the incremental
    maintenance of ``hasse_edges`` never diverges from it.
    """
    more_general = graph._more_general
    edges: list[tuple[str, str]] = []
    for query, generals in more_general.items():
        for general in generals:
            if general == query:
                continue
            intermediate = any(
                middle != query
                and middle != general
                and middle in more_general[query]
                and general in more_general[middle]
                for middle in generals
            )
            if not intermediate:
                edges.append((query, general))
    return sorted(edges)
