"""The general-parser reading of a query key, kept as a differential oracle.

Until the direct decoder (``FieldQuery._decode``) replaced it, this was
the miss path of ``FieldQuery.parse``: lex and parse the text with the
general :mod:`repro.xmlq` XPath parser, then flatten the AST back into
field predicates.  It reads a superset of the canonical grammar on
bare-word values (any predicate order, whitespace, ``007`` bounds) and
none of the keys whose values hold spaces or ``/`` -- the lexer cannot.
Tests compare the decoder against it wherever it accepts a text.
"""

from __future__ import annotations

from typing import Optional

from repro.core.fields import Schema
from repro.core.predicates import (
    PREFIX_TAG,
    RANGE_TAG,
    Exact,
    FieldPredicate,
    PredicateError,
    Prefix,
    Range,
    Wildcard,
)
from repro.core.query import FieldQuery, QueryParseError
from repro.xmlq.astnodes import LocationStep, Predicate
from repro.xmlq.normalize import normalize_xpath
from repro.xmlq.xpparser import parse_xpath


def xpath_for_normalized(schema: Schema, constraints: dict[str, str]) -> str:
    """Reference implementation of ``Schema.xpath_for`` via the general
    normalizer (a method of ``Schema`` until only tests called it)."""
    predicates = []
    for field_name in schema.all_field_names:
        if field_name in constraints:
            path = schema.path_of(field_name)
            value = constraints[field_name]
            predicates.append(f"[{path}/{value}]")
    return normalize_xpath(f"/{schema.root}" + "".join(predicates))


def parse_via_xmlq(schema: Schema, text: str) -> FieldQuery:
    """Field query of ``text`` as the xmlq parser reads it."""
    try:
        path = parse_xpath(text)
    except ValueError as error:
        raise QueryParseError(f"unparseable query text: {error}") from error
    if not path.absolute or path.length != 1:
        raise QueryParseError(
            f"canonical query text must be a rooted single step: {text!r}"
        )
    root_step = path.steps[0]
    if root_step.name != schema.root:
        raise QueryParseError(
            f"query root {root_step.name!r} does not match schema "
            f"{schema.root!r}"
        )
    reverse = {
        tuple(schema.path_of(name).split("/")): name
        for name in schema.all_field_names
    }
    constraints: dict[str, FieldPredicate] = {}
    # Range constraints arrive as two comparison predicates on the
    # same field; both bounds must be present for the pair to fold.
    range_bounds: dict[str, dict[str, int]] = {}
    for predicate in root_step.predicates:
        tags, value, op = _linearize(predicate)
        field_name = reverse.get(tuple(tags))
        if field_name is None:
            raise QueryParseError(
                f"no schema field at path {'/'.join(tags)!r} in {text!r}"
            )
        if op in (">=", "<="):
            if field_name in constraints:
                raise QueryParseError(f"duplicate constraint on {field_name!r}")
            bounds = range_bounds.setdefault(field_name, {})
            if op in bounds:
                raise QueryParseError(
                    f"duplicate {op} bound on {field_name!r} in {text!r}"
                )
            try:
                bounds[op] = int(value)
            except ValueError:
                raise QueryParseError(
                    f"non-numeric range bound {value!r} in {text!r}"
                ) from None
            continue
        if field_name in constraints or field_name in range_bounds:
            raise QueryParseError(f"duplicate constraint on {field_name!r}")
        constraints[field_name] = _leaf_predicate(op, value, text)
    for field_name, bounds in range_bounds.items():
        if set(bounds) != {">=", "<="}:
            raise QueryParseError(
                f"range on {field_name!r} needs both >= and <= bounds: {text!r}"
            )
        try:
            constraints[field_name] = Range(bounds[">="], bounds["<="])
        except PredicateError as error:
            raise QueryParseError(str(error)) from error
    if not constraints:
        raise QueryParseError(f"query has no field constraints: {text!r}")
    return FieldQuery(schema, constraints)


def _leaf_predicate(op: Optional[str], value: str, text: str) -> FieldPredicate:
    """Predicate for one parsed leaf (everything but range pairs)."""
    try:
        if op is None:
            if value.startswith(PREFIX_TAG):
                prefix = value[len(PREFIX_TAG):]
                if not prefix:
                    raise QueryParseError(f"empty prefix constraint: {text!r}")
                return Prefix(prefix)
            if value.startswith(RANGE_TAG):
                raise QueryParseError(
                    f"range constraints are spelled as comparison "
                    f"predicates, not {value!r}: {text!r}"
                )
            return Exact(value)
        if op == "=":
            if "*" not in value:
                raise QueryParseError(
                    f"comparison predicates are not field constraints: {text!r}"
                )
            return Wildcard(value)
    except PredicateError as error:
        raise QueryParseError(str(error)) from error
    raise QueryParseError(f"unsupported comparison operator {op!r} in {text!r}")


def _linearize(predicate: Predicate) -> tuple[list[str], str, Optional[str]]:
    """Flatten a canonical predicate tree into (tags, value, operator).

    Canonical predicates are chains ``a[b[...[leaf]]]`` after
    normalization: each step has exactly one nested predicate until the
    leaf, which is either a bare value step (operator ``None``) or a
    comparison ``tag op literal`` (prefix/wildcard/range spellings).
    """
    tags: list[str] = []
    node = predicate
    while True:
        steps = node.path.steps
        if len(steps) != 1:
            raise QueryParseError("predicate is not a canonical chain")
        step: LocationStep = steps[0]
        if node.comparison is not None:
            if step.predicates:
                raise QueryParseError("predicate is not a canonical chain")
            tags.append(step.name)
            return tags, node.comparison.value, node.comparison.op
        if not step.predicates:
            # The leaf: this step's name is the constrained value.
            return tags, step.name, None
        if len(step.predicates) != 1:
            raise QueryParseError("predicate is not a canonical chain")
        tags.append(step.name)
        node = step.predicates[0]
