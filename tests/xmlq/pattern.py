"""Tree patterns and the covering relation on queries.

Section III-B of the paper defines *covering*: ``q' ⊒ q`` holds when every
descriptor that matches ``q`` also matches ``q'``.  Covering induces a
partial order on queries (Figure 3) which the index hierarchy follows: an
index maps a query to strictly more specific queries it covers.

Deciding covering is the classic XPath *containment* problem.  For the
query subset used here -- tree patterns with child (``/``) and descendant
(``//``) edges, wildcards, and value tests -- containment is decided by
searching for a *homomorphism* from the covering pattern into the covered
pattern:

- homomorphism existence is **sound** for all patterns (if we find one,
  covering truly holds), and
- it is **complete** for patterns without descendant edges and wildcards,
  which is exactly the family of bibliographic queries the system indexes
  (Miklau & Suciu, "Containment and equivalence for an XPath fragment").

Patterns are also built from descriptors themselves: the pattern of a
descriptor is its most specific query (MSD), so ``covers(q, msd)`` answers
"does ``q`` potentially match this file" without touching the evaluator.

A wildcard node never maps onto a node known to be a *text value*
(``is_value=True``), mirroring the evaluator, where ``*`` selects elements
only.

This is the paper's definition, kept as the oracle the field-level
algebra (``repro.core.query.FieldQuery.covers``) is tested against; no
lookup, publish or daemon path runs it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.xmlq.astnodes import (
    Axis,
    Comparison,
    LocationPath,
    LocationStep,
    Predicate,
)
from repro.xmlq.xpparser import parse_xpath
from tests.xmlq.element import Element
from tests.xmlq.evaluator import _as_number, _comparison_holds

_BARE_WORD_RE = re.compile(r"[\w.\-:+]+", re.UNICODE)


@dataclass(frozen=True)
class PatternEdge:
    """An edge to a child pattern node, labeled with its axis."""

    axis: Axis
    child: int


@dataclass
class PatternNode:
    """A node of a tree pattern.

    ``label`` is an element name, a value word, or ``"*"``.  ``is_value``
    is ``True`` when the node is known to denote a text value, ``False``
    when known to be an element, and ``None`` when the query syntax leaves
    it ambiguous (the paper's value-as-step notation).  ``comparison``
    holds a residual value constraint such as ``>=1990``.
    """

    label: str
    is_value: Optional[bool] = None
    comparison: Optional[Comparison] = None
    edges: list[PatternEdge] = field(default_factory=list)

    @property
    def is_wildcard(self) -> bool:
        return self.label == "*"


class TreePattern:
    """A rooted tree pattern over descriptor trees.

    Node 0 is a virtual root standing above the document element, so that
    absolute paths can constrain the document element's name uniformly.
    """

    VIRTUAL_ROOT_LABEL = "#root"

    def __init__(self) -> None:
        self.nodes: list[PatternNode] = [
            PatternNode(self.VIRTUAL_ROOT_LABEL, is_value=False)
        ]

    def add_node(
        self,
        parent: int,
        axis: Axis,
        label: str,
        is_value: Optional[bool] = None,
        comparison: Optional[Comparison] = None,
    ) -> int:
        """Append a node under ``parent`` and return its index."""
        index = len(self.nodes)
        self.nodes.append(PatternNode(label, is_value=is_value, comparison=comparison))
        self.nodes[parent].edges.append(PatternEdge(axis, index))
        return index

    @property
    def root(self) -> int:
        return 0

    def size(self) -> int:
        """Number of pattern nodes, excluding the virtual root."""
        return len(self.nodes) - 1

    def children(self, index: int) -> list[PatternEdge]:
        """The outgoing edges of a pattern node."""
        return self.nodes[index].edges

    def strict_descendants(self, index: int) -> list[int]:
        """Indices of every strict descendant of ``index``, pre-order."""
        result: list[int] = []
        stack = [edge.child for edge in self.nodes[index].edges]
        while stack:
            node = stack.pop()
            result.append(node)
            stack.extend(edge.child for edge in self.nodes[node].edges)
        return result

    def __repr__(self) -> str:
        return f"TreePattern({self.size()} nodes)"


def pattern_from_xpath(expression: Union[str, LocationPath]) -> TreePattern:
    """Build the tree pattern of a query.

    Accepts a source string or a parsed :class:`LocationPath`; the path
    must be absolute.
    """
    path = parse_xpath(expression) if isinstance(expression, str) else expression
    if not path.absolute:
        raise ValueError("patterns are built from absolute paths")
    pattern = TreePattern()
    _attach_steps(pattern, pattern.root, path.steps)
    return pattern


def _attach_steps(
    pattern: TreePattern, anchor: int, steps: tuple[LocationStep, ...]
) -> int:
    """Attach a chain of location steps below ``anchor``; return the index
    of the last step's node."""
    current = anchor
    for step in steps:
        current = pattern.add_node(current, step.axis, step.name)
        for predicate in step.predicates:
            _attach_predicate(pattern, current, predicate)
    return current


def _attach_predicate(pattern: TreePattern, anchor: int, predicate: Predicate) -> None:
    last = _attach_steps(pattern, anchor, predicate.path.steps)
    comparison = predicate.comparison
    if comparison is None:
        return
    if comparison.op == "=" and _BARE_WORD_RE.fullmatch(comparison.value):
        # `[p = v]` and `[p/v]` are the same constraint (see the
        # normalizer); build the same pattern for both so covering treats
        # them interchangeably.
        pattern.add_node(last, Axis.CHILD, comparison.value, is_value=True)
        return
    node = pattern.nodes[last]
    if node.comparison is not None:
        raise ValueError("a pattern node cannot carry two comparisons")
    node.comparison = comparison


def descriptor_to_pattern(descriptor: Element) -> TreePattern:
    """Build the pattern of a descriptor -- its most specific query.

    Element tags become element nodes (``is_value=False``); leaf text
    becomes a value child node (``is_value=True``), matching the paper's
    notation where values are trailing path components.
    """
    pattern = TreePattern()
    _attach_element(pattern, pattern.root, descriptor)
    return pattern


def _attach_element(pattern: TreePattern, anchor: int, element: Element) -> None:
    index = pattern.add_node(anchor, Axis.CHILD, element.tag, is_value=False)
    if element.text is not None:
        pattern.add_node(index, Axis.CHILD, element.text, is_value=True)
    for child in element.children:
        _attach_element(pattern, index, child)


def covers(
    general: Union[str, LocationPath, TreePattern],
    specific: Union[str, LocationPath, TreePattern, Element],
) -> bool:
    """Decide the covering relation ``general ⊒ specific``.

    Returns ``True`` when a homomorphism from the pattern of ``general``
    into the pattern of ``specific`` exists, i.e. every descriptor matching
    ``specific`` also matches ``general``.  ``specific`` may be a
    descriptor :class:`Element`, in which case this answers whether
    ``general`` covers the descriptor's MSD.
    """
    if isinstance(specific, Element):
        specific_pattern = descriptor_to_pattern(specific)
    else:
        specific_pattern = _as_pattern(specific)
    return _Homomorphism(_as_pattern(general), specific_pattern).exists()


def _as_pattern(query: Union[str, LocationPath, TreePattern]) -> TreePattern:
    if isinstance(query, TreePattern):
        return query
    return pattern_from_xpath(query)


class _Homomorphism:
    """Memoized search for an embedding of ``source`` into ``target``."""

    def __init__(self, source: TreePattern, target: TreePattern) -> None:
        self.source = source
        self.target = target
        self._memo: dict[tuple[int, int], bool] = {}

    def exists(self) -> bool:
        return self._embeds(self.source.root, self.target.root)

    def _embeds(self, source_index: int, target_index: int) -> bool:
        key = (source_index, target_index)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        # Guard against re-entrant evaluation (patterns are trees, so the
        # recursion is finite, but memoizing False first keeps the table
        # consistent while children are explored).
        self._memo[key] = False
        result = self._check(source_index, target_index)
        self._memo[key] = result
        return result

    def _check(self, source_index: int, target_index: int) -> bool:
        source_node = self.source.nodes[source_index]
        target_node = self.target.nodes[target_index]
        if not self._labels_compatible(source_node, target_node):
            return False
        if not self._comparison_implied(source_node, target_index):
            return False
        for edge in source_node.edges:
            if not self._edge_embeds(edge, target_index):
                return False
        return True

    def _labels_compatible(
        self, source_node: PatternNode, target_node: PatternNode
    ) -> bool:
        if source_node.label == TreePattern.VIRTUAL_ROOT_LABEL:
            return target_node.label == TreePattern.VIRTUAL_ROOT_LABEL
        if target_node.label == TreePattern.VIRTUAL_ROOT_LABEL:
            return False
        if source_node.is_wildcard:
            # '*' selects element nodes only; it must not swallow a node
            # known to be a text value.
            return target_node.is_value is not True
        if source_node.label != target_node.label:
            return False
        # Identical labels: a value node can only stand for a value node.
        if source_node.is_value is True and target_node.is_value is False:
            return False
        if source_node.is_value is False and target_node.is_value is True:
            return False
        return True

    def _comparison_implied(self, source_node: PatternNode, target_index: int) -> bool:
        constraint = source_node.comparison
        if constraint is None:
            return True
        target_node = self.target.nodes[target_index]
        if target_node.comparison is not None and _comparison_implies(
            target_node.comparison, constraint
        ):
            return True
        # An exact value child of the target (e.g. year -> 1996) also
        # witnesses the constraint when the value satisfies it.
        for edge in target_node.edges:
            child = self.target.nodes[edge.child]
            if (
                edge.axis is Axis.CHILD
                and not child.edges
                and child.is_value is not False
                and _comparison_holds(child.label, constraint)
            ):
                return True
        return False

    def _edge_embeds(self, edge: PatternEdge, target_index: int) -> bool:
        if edge.axis is Axis.CHILD:
            candidates = [
                e.child
                for e in self.target.children(target_index)
                if e.axis is Axis.CHILD
            ]
            # A child edge of the source can also be witnessed by a
            # descendant edge only if the descendant is a direct child,
            # which a '//' target edge does not guarantee -- so it cannot.
        else:
            candidates = self.target.strict_descendants(target_index)
        return any(
            self._embeds(edge.child, candidate) for candidate in candidates
        )


def _comparison_implies(known: Comparison, required: Comparison) -> bool:
    """True when any value satisfying ``known`` also satisfies ``required``."""
    if known == required:
        return True
    if known.op == "=":
        return _comparison_holds(known.value, required)
    known_num = _as_number(known.value)
    required_num = _as_number(required.value)
    if known_num is None or required_num is None:
        # Non-numeric ordering implication is only safe for identical
        # constraints, handled above.
        return False
    if required.op == "!=":
        # known is a range/exclusion; it implies v != c only if c lies
        # outside the range.
        return not _range_contains(known, required_num)
    if known.op == "!=":
        return False
    return _range_implies(known.op, known_num, required.op, required_num)


def _range_contains(comparison: Comparison, value: float) -> bool:
    bound = _as_number(comparison.value)
    if bound is None:
        return True  # conservatively assume it may contain the value
    op = comparison.op
    if op == "<":
        return value < bound
    if op == "<=":
        return value <= bound
    if op == ">":
        return value > bound
    if op == ">=":
        return value >= bound
    return True


def _range_implies(
    known_op: str, known_bound: float, required_op: str, required_bound: float
) -> bool:
    if required_op in ("<", "<="):
        if known_op not in ("<", "<="):
            return False
        if known_bound < required_bound:
            return True
        if known_bound == required_bound:
            return required_op == "<=" or known_op == "<"
        return False
    if required_op in (">", ">="):
        if known_op not in (">", ">="):
            return False
        if known_bound > required_bound:
            return True
        if known_bound == required_bound:
            return required_op == ">=" or known_op == ">"
        return False
    return False  # a range never pins a single value in our subset
