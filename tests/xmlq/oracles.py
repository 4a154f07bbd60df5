"""The seed's query algebra, kept as the oracles the optimized one is
compared against.

``repro.xmlq.covers`` interns patterns, memoizes verdicts and prefilters
on fingerprints; ``PartialOrderGraph`` maintains its Hasse diagram
incrementally.  Both must stay behaviourally invisible, so the
algorithms they replaced survive here -- not on the library's public
surface -- for the property tests to compare against.

So does a record's XML descriptor (Figure 1), which no lookup, publish
or daemon path builds: the paper defines covering on descriptors, so the
cross-layer tests match field queries against them.
"""

from __future__ import annotations

from typing import Union

from repro.core.fields import Record, Schema, SchemaError
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


def descriptor_of(record: Record) -> Element:
    """The record's XML descriptor (Figure 1 form): each present field's
    value at its element path under the schema's root tag."""
    tree: dict = {}
    for name, value in record.items():
        path = record.schema.path_of(name)
        *parents, leaf = path.split("/")
        node = tree
        for part in parents:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise SchemaError(f"path conflict at {part!r} in {path!r}")
        if leaf in node:
            raise SchemaError(f"duplicate path {path!r}")
        node[leaf] = value

    def build(tag: str, content) -> Element:
        if isinstance(content, str):
            return Element(tag, text=content)
        return Element(tag, children=[build(*child) for child in content.items()])

    return build(record.schema.root, tree)


def record_from_descriptor(schema: Schema, descriptor: Element) -> Record:
    """Extract a record from a descriptor produced for this schema."""
    if descriptor.tag != schema.root:
        raise SchemaError(
            f"descriptor root <{descriptor.tag}> does not match schema "
            f"<{schema.root}>"
        )
    values: dict[str, str] = {}
    for name in schema.all_field_names:
        text = descriptor.findtext(schema.path_of(name))
        if text is not None:
            values[name] = text
    return Record(schema, values)
