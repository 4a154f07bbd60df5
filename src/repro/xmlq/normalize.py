"""Canonical normal form for equivalent query expressions.

Footnote 1 of the paper notes that several equivalent XPath expressions
exist for the same query, and assumes they are "transformed into a unique
normalized format" before hashing.  This matters because the DHT key of a
query is ``h(q)``: two users writing the same query differently must reach
the same node.

The normal form used here:

1. **Equality rewriting** -- a comparison predicate ``[year=1996]`` becomes
   the value-step predicate ``[year/1996]``, the paper's own notation, when
   the value is a bare word.  Other operators (``<``, ``>=`` ...) are kept
   as comparisons.
2. **Path folding** -- trailing child steps of a path are folded into
   nested predicates, so ``/article/author/last/Smith`` and
   ``/article[author[last[Smith]]]`` normalize identically.  A query thus
   becomes a *rooted tree of predicates*, which is unique up to predicate
   order.  (Folding preserves match semantics -- whether the result set is
   empty -- which is the only semantics the indexing system uses.)
   Descendant (``//``) steps cannot be folded into our predicate grammar
   and act as folding barriers.
3. **Predicate ordering** -- predicates on each step are recursively
   normalized, deduplicated, and sorted by their serialized text.

The result is canonical for the descriptor-query family the paper indexes
(child axes, value tests) and a stable best-effort form for ``//``/``*``
queries.
"""

from __future__ import annotations

import re
from typing import Union

from repro.xmlq.astnodes import Axis, LocationPath, LocationStep, Predicate
from repro.xmlq.xpparser import parse_xpath

_BARE_WORD_RE = re.compile(r"[\w.\-:+]+", re.UNICODE)


def normalize_xpath(expression: Union[str, LocationPath]) -> str:
    """Return the canonical text of a query expression."""
    path = parse_xpath(expression) if isinstance(expression, str) else expression
    return str(_normalize_location_path(path))


def _normalize_location_path(path: LocationPath) -> LocationPath:
    steps = [_normalize_step_predicates(step) for step in path.steps]
    steps = _fold_child_tail(steps)
    return LocationPath(tuple(steps), absolute=path.absolute)


def _normalize_step_predicates(step: LocationStep) -> LocationStep:
    normalized: list[Predicate] = []
    for predicate in step.predicates:
        normalized.append(_normalize_predicate(predicate))
    unique = sorted(set(normalized), key=str)
    return step.with_predicates(tuple(unique))


def _normalize_predicate(predicate: Predicate) -> Predicate:
    path = predicate.path
    comparison = predicate.comparison
    # Rewrite `[p = v]` as `[p/v]` when v is a bare word, so the two
    # notations of the paper hash identically.
    if (
        comparison is not None
        and comparison.op == "="
        and _BARE_WORD_RE.fullmatch(comparison.value)
    ):
        extended = path.steps + (LocationStep(Axis.CHILD, comparison.value),)
        path = LocationPath(extended, absolute=False)
        comparison = None
    inner = _normalize_location_path(path)
    return Predicate(inner, comparison)


def _fold_child_tail(steps: list[LocationStep]) -> list[LocationStep]:
    """Fold trailing child steps into predicates of their predecessors.

    ``a/b[p]`` becomes ``a[b[p]]`` when ``b`` is reached via the child
    axis.  Folding repeats from the tail until only the first step, or a
    descendant-axis boundary, remains.
    """
    folded = list(steps)
    while len(folded) > 1 and folded[-1].axis is Axis.CHILD:
        tail = folded.pop()
        relative = LocationPath(
            (LocationStep(Axis.CHILD, tail.name, tail.predicates),),
            absolute=False,
        )
        previous = folded[-1]
        merged = tuple(
            sorted(set(previous.predicates + (Predicate(relative),)), key=str)
        )
        folded[-1] = previous.with_predicates(merged)
    return folded
