"""Evaluation of the XPath query subset against descriptor trees.

A descriptor *matches* an XPath expression when evaluating the expression
on the descriptor yields a non-empty node set (Section III-B of the paper).

Two kinds of node can appear in a node set:

- :class:`tests.xmlq.element.Element` nodes, selected by name tests on
  element tags, and
- :class:`ValueNode` wrappers, selected when a bare word in the path equals
  the *text value* of a leaf element.  This implements the paper's query
  notation in which values appear as trailing path components
  (e.g. ``/article/title/TCP`` selects the value ``TCP`` of the ``title``
  element).

Comparison predicates (``[year>=1990]``) compare numerically when both
sides parse as numbers and lexically otherwise, following XPath 1.0's loose
typing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.xmlq.astnodes import Axis, Comparison, LocationPath, LocationStep, Predicate
from repro.xmlq.xpparser import parse_xpath
from tests.xmlq.element import Element


@dataclass(frozen=True)
class ValueNode:
    """A text value selected as if it were a child node of its element."""

    parent: Element
    value: str


Node = Union[Element, ValueNode]


def evaluate(expression: Union[str, LocationPath], descriptor: Element) -> list[Node]:
    """Evaluate an XPath expression against a descriptor tree.

    ``expression`` may be a source string or a pre-parsed
    :class:`LocationPath`.  Returns the selected node set (possibly empty),
    deduplicated but in stable document order.
    """
    path = parse_xpath(expression) if isinstance(expression, str) else expression
    if not path.absolute:
        raise ValueError("top-level evaluation requires an absolute path")
    context: list[Node] = [_VirtualRoot(descriptor)]
    return _evaluate_steps(path.steps, context)


def matches(descriptor: Element, expression: Union[str, LocationPath]) -> bool:
    """True when the descriptor matches the expression (non-empty result)."""
    return bool(evaluate(expression, descriptor))


@dataclass(frozen=True)
class _VirtualRoot:
    """Synthetic parent of the document root, so absolute paths can test
    the root element's name like any other step."""

    root: Element


def _evaluate_steps(
    steps: tuple[LocationStep, ...], context: list[Node]
) -> list[Node]:
    current = context
    for step in steps:
        selected: list[Node] = []
        seen: set[int] = set()
        for node in current:
            for candidate in _step_candidates(node, step):
                marker = id(candidate)
                if marker in seen:
                    continue
                if _predicates_hold(candidate, step.predicates):
                    seen.add(marker)
                    selected.append(candidate)
        current = selected
        if not current:
            break
    return current


def _step_candidates(node: Node, step: LocationStep) -> list[Node]:
    if isinstance(node, ValueNode):
        return []
    if isinstance(node, _VirtualRoot):
        if step.axis is Axis.CHILD:
            return _filter_by_name([node.root], step)
        selected = _filter_by_name(list(node.root.iter()), step)
        if not step.is_wildcard:
            for descendant in node.root.iter():
                if descendant.text is not None and descendant.text == step.name:
                    selected.append(ValueNode(descendant, descendant.text))
        return selected
    if step.axis is Axis.CHILD:
        return _filter_by_name(list(node.children), step, parent=node)
    # Descendant axis: all strict descendants, plus value nodes anywhere
    # below (including on this node itself is excluded -- '//' selects
    # descendants of the context node).
    candidates: list[Node] = []
    for descendant in node.descendants():
        candidates.append(descendant)
    filtered = _filter_by_name(
        [c for c in candidates if isinstance(c, Element)], step
    )
    if not step.is_wildcard:
        for descendant in node.descendants():
            if descendant.text is not None and descendant.text == step.name:
                filtered.append(ValueNode(descendant, descendant.text))
    return filtered


def _filter_by_name(
    elements: list[Element], step: LocationStep, parent: Optional[Element] = None
) -> list[Node]:
    if step.is_wildcard:
        return list(elements)
    selected: list[Node] = [e for e in elements if e.tag == step.name]
    # A bare word can also select the text value of the context element,
    # implementing the paper's value-as-step notation.
    if (
        parent is not None
        and parent.text is not None
        and parent.text == step.name
    ):
        selected.append(ValueNode(parent, parent.text))
    return selected


def _predicates_hold(node: Node, predicates: tuple[Predicate, ...]) -> bool:
    for predicate in predicates:
        if not _predicate_holds(node, predicate):
            return False
    return True


def _predicate_holds(node: Node, predicate: Predicate) -> bool:
    if isinstance(node, ValueNode):
        # Values have no substructure; only a degenerate predicate that
        # re-tests the value itself could hold, which the grammar does not
        # produce, so any predicate on a value node fails.
        return False
    selected = _evaluate_steps(predicate.path.steps, [node])
    if predicate.comparison is None:
        return bool(selected)
    return any(
        _comparison_holds(_string_value(sel), predicate.comparison)
        for sel in selected
    )


def _string_value(node: Node) -> str:
    if isinstance(node, ValueNode):
        return node.value
    if node.text is not None:
        return node.text
    # XPath string value of an element: concatenation of descendant text.
    return "".join(
        descendant.text for descendant in node.iter() if descendant.text is not None
    )


def _comparison_holds(value: str, comparison: Comparison) -> bool:
    left_num = _as_number(value)
    right_num = _as_number(comparison.value)
    if left_num is not None and right_num is not None:
        left: Union[float, str] = left_num
        right: Union[float, str] = right_num
    else:
        left, right = value, comparison.value
    op = comparison.op
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right  # type: ignore[operator]
    if op == "<=":
        return left <= right  # type: ignore[operator]
    if op == ">":
        return left > right  # type: ignore[operator]
    return left >= right  # type: ignore[operator]


def _as_number(text: str) -> Optional[float]:
    try:
        return float(text)
    except ValueError:
        return None
