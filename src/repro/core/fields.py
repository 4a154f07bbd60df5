"""Descriptor schemas: fields, records, and query text.

The paper's running example is a bibliographic database whose descriptors
have author, title, conference, year, and size fields (Figure 1).  A
:class:`Schema` names the *queryable* fields of a descriptor type, maps
each field to its element path inside the descriptor, and produces the
canonical XPath text for any combination of field constraints -- the text
whose hash ``h(q)`` places a query on a node.

A :class:`Record` is one concrete data item: a value for every schema
field (plus optional administrative fields such as ``size`` that are
stored in the descriptor but never indexed, because "users are unlikely to
know the size beforehand", Section IV-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from typing import Iterable, Mapping, Optional


class SchemaError(ValueError):
    """Raised for unknown fields or malformed records."""


@dataclass(frozen=True)
class Schema:
    """A descriptor type: root tag, queryable fields, admin fields.

    ``fields`` maps each queryable field name to the ``/``-separated
    element path holding its value inside the descriptor (e.g. the
    ``author`` field of an article lives at ``author/name``).  ``admin``
    fields are stored in descriptors and MSDs but are not valid in broad
    queries.
    """

    root: str
    fields: Mapping[str, str]
    admin: Mapping[str, str] = dataclass_field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.root:
            raise SchemaError("schema root tag cannot be empty")
        overlap = set(self.fields) & set(self.admin)
        if overlap:
            raise SchemaError(f"fields cannot be both queryable and admin: {overlap}")

    # Derived tables sit on the query hot path, so each is computed once
    # per instance (cached_property stores into the instance ``__dict__``,
    # which a frozen dataclass permits).

    @cached_property
    def field_names(self) -> tuple[str, ...]:
        """Queryable field names, in schema declaration order."""
        return tuple(self.fields)

    @cached_property
    def all_field_names(self) -> tuple[str, ...]:
        return tuple(self.fields) + tuple(self.admin)

    @cached_property
    def key_frames(self) -> dict[str, tuple[str, str]]:
        """Per field, in schema order, the text that surrounds its
        constraint in a canonical key: the opening tag chain and the
        brackets closing it (``author/name`` -> ``("[author[name", "]]")``)."""
        frames = {}
        for name in self.all_field_names:
            tags = self.path_of(name).split("/")
            frames[name] = ("[" + "[".join(tags), "]" * len(tags))
        return frames

    @cached_property
    def key_fields(self) -> dict[str, str]:
        """The reverse table key decoding uses: tag chain -> field name."""
        return {chain[1:]: name for name, (chain, _) in self.key_frames.items()}

    def path_of(self, field_name: str) -> str:
        """The element path of a field inside descriptors."""
        path = self.fields.get(field_name) or self.admin.get(field_name)
        if path is None:
            raise SchemaError(f"unknown field {field_name!r} in schema {self.root!r}")
        return path

    # -- query text -----------------------------------------------------------

    def xpath_for(self, constraints: Mapping[str, object]) -> str:
        """Canonical XPath for a set of field constraints.

        Values may be plain strings (equality, the seed semantics) or
        predicate objects from :mod:`repro.core.predicates`, which emit
        their own canonical spellings (prefix tags, ``"pat*"`` wildcard
        comparisons, range bound pairs).  The text equals the output of
        :func:`repro.xmlq.normalize.normalize_xpath` on any equivalent
        spelling (verified by tests), so every way of writing the query
        hashes to the same DHT key.  The canonical form is built
        directly -- nested predicates sorted by their serialized text --
        because this function sits on the hot path of the simulation.
        """
        if not constraints:
            raise SchemaError("a query needs at least one field constraint")
        frames = self.key_frames
        unknown = constraints.keys() - frames.keys()
        if unknown:
            raise SchemaError(f"unknown fields in constraints: {sorted(unknown)}")
        predicates = []
        for field_name, (chain, closing) in frames.items():
            if field_name in constraints:
                constraint = constraints[field_name]
                if hasattr(constraint, "predicate_texts"):
                    predicates.extend(constraint.predicate_texts(chain, closing))
                else:
                    predicates.append(f"{chain}[{constraint}]{closing}")
        return self.key_of(predicates)

    def key_of(self, chains: Iterable[str]) -> str:
        """The canonical key over predicate chain texts, sorted: the one
        join of :meth:`xpath_for` and :class:`~repro.core.query.RecordKeys`."""
        return f"/{self.root}" + "".join(sorted(chains))


class Record:
    """One data item: values for (a subset of) a schema's fields."""

    __slots__ = ("schema", "_values", "_hash")

    def __init__(self, schema: Schema, values: Mapping[str, str]) -> None:
        for field_name in values:
            schema.path_of(field_name)  # validates
        missing = [f for f in schema.field_names if f not in values]
        if missing:
            raise SchemaError(f"record is missing queryable fields: {missing}")
        self.schema = schema
        self._values = {name: str(value) for name, value in values.items()}
        self._hash: Optional[int] = None

    def get(self, field_name: str) -> Optional[str]:
        """The record's value for a field, or None when absent."""
        return self._values.get(field_name)

    def __getitem__(self, field_name: str) -> str:
        try:
            return self._values[field_name]
        except KeyError:
            raise SchemaError(f"record has no value for field {field_name!r}")

    def items(self) -> list[tuple[str, str]]:
        """Present (field, value) pairs in schema declaration order."""
        return [
            (name, self._values[name])
            for name in self.schema.all_field_names
            if name in self._values
        ]

    @property
    def values(self) -> dict[str, str]:
        return dict(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Record):
            return NotImplemented
        return self.schema is other.schema and self._values == other._values

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((id(self.schema), tuple(sorted(self._values.items()))))
        return self._hash

    def __repr__(self) -> str:
        pairs = ", ".join(f"{k}={v!r}" for k, v in self.items())
        return f"Record({pairs})"


#: The bibliographic schema used throughout the paper's evaluation.
#: ``author``, ``title``, ``conf`` and ``year`` are queryable; ``size`` is
#: administrative (never indexed -- Section IV-C).
ARTICLE_SCHEMA = Schema(
    root="article",
    fields={
        "author": "author/name",
        "title": "title",
        "conf": "conf",
        "year": "year",
    },
    admin={"size": "size"},
)
