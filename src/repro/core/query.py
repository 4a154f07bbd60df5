"""Field queries: the working form of queries inside the index layer.

A :class:`FieldQuery` is a conjunction of per-field *predicates* over a
:class:`repro.core.fields.Schema` -- :class:`repro.core.predicates.Exact`
equality (the seed semantics), plus :class:`Prefix`, :class:`Wildcard`
and :class:`Range` constraints (Section IV-C and the trie-over-DHT
extension).  It is the structured twin of a canonical XPath expression:
``key()`` produces the normalized XPath text whose hash places the query
in the DHT, and :meth:`parse` recovers the structure from that text for
every predicate form.  A published record's keys come from
:class:`RecordKeys` instead, one table of chain texts per record.

Covering (Section III-B) factors per field: ``q'`` covers ``q`` if and
only if every field ``q'`` constrains is also constrained by ``q`` with
an *implied* predicate (equal value, extending prefix, contained range,
...).  On the exact fragment this reduces to the seed's
subset-of-constraints rule; the agreement of the full relation with the
paper's tree-pattern homomorphism (``tests/xmlq/pattern.py``) is verified
by property-based tests on the fragments where the homomorphism applies.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from typing import Iterable, Mapping, Optional

from repro.core.fields import Record, Schema, SchemaError
from repro.core.predicates import (
    PREFIX_TAG,
    Exact,
    FieldPredicate,
    Prefix,
    Range,
    Wildcard,
    coerce,
)
from repro.perf import counters

#: A comparison leaf of a canonical key, ``tag OP value``.  Matches any
#: text: one without a leading ``tag OP`` comes back with ``OP`` empty.
_COMPARISON_RE = re.compile(r"([^=<>]*)(>=|<=|=|)(.*)", re.DOTALL)


class QueryParseError(ValueError):
    """Raised when query text is not the canonical key of a query."""


class FieldQuery:
    """An immutable conjunction of field predicates over a schema."""

    __slots__ = ("schema", "_items", "_key", "_hash", "_chains")

    def __init__(
        self, schema: Schema, constraints: Mapping[str, object]
    ) -> None:
        if not constraints:
            raise SchemaError("a query needs at least one field constraint")
        unknown = constraints.keys() - schema.key_frames.keys()
        if unknown:
            raise SchemaError(
                f"unknown fields {sorted(unknown)} in schema {schema.root!r}"
            )
        self.schema = schema
        self._items: tuple[tuple[str, FieldPredicate], ...] = tuple(
            (name, coerce(constraints[name]))
            for name in schema.all_field_names
            if name in constraints
        )
        self._key: Optional[str] = None
        self._hash: Optional[int] = None
        #: Chain texts of an exact-only key, which only ``_decode`` knows.
        self._chains: Optional[frozenset[str]] = None

    # -- construction ----------------------------------------------------------

    @classmethod
    def msd_of(cls, record: Record) -> "FieldQuery":
        """The most specific query of a record: every field constrained
        to its value, exactly -- ``"Al*n"`` or ``"prefix:TCP"`` raise
        :class:`PredicateError`, as a reserved character does."""
        return RecordKeys(record).msd()

    @classmethod
    def of_record(
        cls, record: Record, fields: Iterable[str]
    ) -> "FieldQuery":
        """The query constraining ``fields`` to the record's (exact) values."""
        constraints = {name: Exact(record[name]) for name in fields}
        return cls(record.schema, constraints)

    # Parsing canonical text is on the simulation's hot path (a node's
    # response entries are read by the user at every step) and the same
    # texts recur constantly, so results are memoized per schema.  The
    # cache dict hangs off the schema instance itself (its ``__dict__``,
    # which a frozen dataclass leaves writable) -- not off
    # ``id(schema)``, whose value can be recycled after a schema is
    # garbage-collected and would then serve queries bound to a dead
    # schema -- and evicts least-recently-used entries instead of
    # discarding everything at the limit.  :meth:`select_covering` probes
    # it without the LRU touch: recency only matters past the limit.
    _PARSE_CACHE_ATTR = "_fieldquery_parse_cache"
    _PARSE_CACHE_LIMIT = 200_000

    @classmethod
    def parse(cls, schema: Schema, text: str) -> "FieldQuery":
        """Recover a field query from its canonical XPath text.

        The inverse of :meth:`key`, memoized per schema: any other text,
        equivalent spellings included, raises :class:`QueryParseError`.
        User-typed XPath goes through
        :func:`repro.xmlq.normalize.normalize_xpath` first.
        """
        counters.field_parse_calls += 1
        cache = schema.__dict__.setdefault(cls._PARSE_CACHE_ATTR, OrderedDict())
        cached = cache.get(text)
        if cached is not None:
            counters.field_parse_cache_hits += 1
            cache.move_to_end(text)
            return cached
        counters.field_parse_cache_misses += 1
        parsed = cls._decode(schema, text)
        cache[text] = parsed
        while len(cache) > cls._PARSE_CACHE_LIMIT:
            cache.popitem(last=False)
        return parsed

    @classmethod
    def _decode(cls, schema: Schema, text: str) -> "FieldQuery":
        """The inverse of :meth:`key`: reads a canonical key, refuses the rest.

        A key is ``/root`` followed by predicate chains
        ``[tag[tag[leaf]]]``.  No value holds a bracket (the predicate
        constructors refuse them), so ``][`` can only separate two
        chains and the last ``[`` of a chain can only separate its tags
        from its leaf.  A leaf is a value (exact, or ``prefix:P``) or a
        comparison on the last tag (``tag="pat*"``, ``tag>=lo``,
        ``tag<=hi``).  Whatever survives that reading is accepted only
        if it spells its own key, which is what rules out the remaining
        non-canonical texts: stray brackets, unsorted or repeated
        predicates, unquoted patterns, ``007``.
        """
        opening = f"/{schema.root}["
        if not (text.startswith(opening) and text.endswith("]")):
            raise QueryParseError(
                f"not a predicate query rooted at {schema.root!r}: {text!r}"
            )
        fields = schema.key_fields
        constraints: dict[str, FieldPredicate] = {}
        bounds: dict[str, dict[str, int]] = {}
        chains = text[len(opening):-1].split("][")
        try:
            for chain in chains:
                tags, _, tail = chain.rpartition("[")
                leaf = tail.rstrip("]")
                field_name = fields.get(tags)
                if field_name is not None:
                    constraints[field_name] = (
                        Prefix(leaf[len(PREFIX_TAG):])
                        if leaf.startswith(PREFIX_TAG)
                        else Exact(leaf)
                    )
                    continue
                tag, op, value = _COMPARISON_RE.fullmatch(leaf).groups()
                field_name = fields.get(f"{tags}[{tag}" if tags else tag)
                if field_name is None or not op:
                    raise SchemaError(f"no schema field at {chain!r}")
                if op == "=":
                    # Strips the quotes; the round trip below checks them.
                    constraints[field_name] = Wildcard(value[1:-1])
                else:
                    bounds.setdefault(field_name, {})[op] = int(value)
            for field_name, pair in bounds.items():
                if len(pair) != 2:
                    raise SchemaError(
                        f"range on {field_name!r} needs both >= and <= bounds"
                    )
                constraints[field_name] = Range(pair[">="], pair["<="])
            query = cls(schema, constraints)
        except ValueError as error:  # SchemaError, PredicateError, int()
            raise QueryParseError(f"{error} in {text!r}") from error
        canonical = schema.xpath_for(constraints)
        if canonical != text:
            raise QueryParseError(
                f"not a canonical key (that would be {canonical!r}): {text!r}"
            )
        # The caller's string, which the memo holds anyway, not the copy.
        query._key = text
        if query.is_exact():  # here, not in __init__: only a decoder has them free
            query._chains = frozenset(chains)
        return query

    @classmethod
    def select_covering(
        cls, entries: list[str], target: Record, target_msd: FieldQuery,
        keys: Optional[RecordKeys],
    ) -> Optional[FieldQuery]:
        """The returned entry a user after ``target`` follows, or None.

        That is the most specific entry covering the target: more
        constrained fields first, then higher predicate rank, the first
        of equals; texts that are no canonical keys are skipped.  With
        ``keys`` (``RecordKeys(target)``, ``target_msd`` its ``msd()``,
        held for the whole lookup) nothing outranks the MSD, an
        exact-only entry covers when its chain texts are the target's,
        and an answer of 2^fields entries or more, none a predicate, is
        probed, not scanned; the rest is matched field by field.
        """
        target_chains = None
        if keys is not None:
            if keys.msd_key in entries:
                return target_msd
            chains = keys._chains
            if len(entries) >= 1 << len(chains):
                # No exact key holds "=" or "[prefix:"; predicates and garbage do.
                joined = "".join(entries)
                if "=" not in joined and f"[{PREFIX_TAG}" not in joined:
                    return keys.most_specific(entries)
            # As ``_decode`` splits a key, so that equal chains are equal texts.
            target_chains = frozenset(chain[1:-1] for chain in chains.values())
        schema = target.schema
        memo = schema.__dict__.setdefault(cls._PARSE_CACHE_ATTR, OrderedDict())
        best: Optional[FieldQuery] = None
        best_rank = (0, 0)  # below every query's: each constrains a field
        for text in entries:
            entry = memo.get(text)
            if entry is None:
                try:
                    entry = cls.parse(schema, text)
                except QueryParseError:
                    continue
            chains = entry._chains
            if chains is None or target_chains is None:
                if not entry.covers_record(target):
                    continue
            elif not chains <= target_chains:
                continue
            rank = entry.specificity()
            if rank > best_rank:
                best, best_rank = entry, rank
        return best

    # -- accessors ----------------------------------------------------------------

    @property
    def items(self) -> tuple[tuple[str, str], ...]:
        """Constraints as (field, text) pairs in schema order.

        Exact constraints read as their plain value (the seed form);
        other predicates use their construction spelling
        (``prefix:Al``, ``Al*n``, ``range:1995:2000``).
        """
        return tuple((name, pred.text) for name, pred in self._items)

    @property
    def predicate_items(self) -> tuple[tuple[str, FieldPredicate], ...]:
        """Constraints as (field, predicate) pairs in schema order."""
        return self._items

    @property
    def fields(self) -> frozenset[str]:
        return frozenset(name for name, _ in self._items)

    def value(self, field_name: str) -> Optional[str]:
        """The constraint text of a field, or None when unconstrained."""
        for name, pred in self._items:
            if name == field_name:
                return pred.text
        return None

    def key(self) -> str:
        """Canonical XPath text -- the identifier hashed into the DHT."""
        if self._key is None:
            self._key = self.schema.xpath_for(dict(self._items))
        return self._key

    def is_msd(self) -> bool:
        """True when every schema field (queryable and admin) is constrained."""
        return len(self._items) == len(self.schema.all_field_names)

    def is_exact(self) -> bool:
        """True when every constraint is an equality (the seed fragment)."""
        return all(pred.kind == "exact" for _, pred in self._items)

    def specificity(self) -> tuple[int, int]:
        """Ordering key for entry selection: field count, predicate rank."""
        return (
            len(self._items),
            sum(pred.rank() for _, pred in self._items),
        )

    # -- algebra --------------------------------------------------------------------

    def covers(self, other: "FieldQuery") -> bool:
        """Covering test: every predicate of self is implied in other."""
        if self.schema is not other.schema:
            return False
        theirs = dict(other._items)
        for name, pred in self._items:
            other_pred = theirs.get(name)
            if other_pred is None or not pred.covers(other_pred):
                return False
        return True

    def covers_record(self, record: Record) -> bool:
        """True when the record satisfies every predicate."""
        for name, pred in self._items:
            value = record.get(name)
            if value is None or not pred.matches(value):
                return False
        return True

    def specialize(self, record: Record) -> "FieldQuery":
        """The exact query binding this query's fields to the record.

        The specialization step of Section IV-B: when a predicate query
        resolves to nothing, a user who knows more about the target can
        re-ask with the values filled in.
        """
        if not self.covers_record(record):
            raise SchemaError(
                f"{self!r} does not cover {record!r}; its specialization "
                "would answer a different question"
            )
        return FieldQuery.of_record(record, [name for name, _ in self._items])

    def restrict(self, fields: Iterable[str]) -> "FieldQuery":
        """The sub-query keeping only the given fields (must be present)."""
        wanted = set(fields)
        missing = wanted - {name for name, _ in self._items}
        if missing:
            raise SchemaError(f"query does not constrain fields: {sorted(missing)}")
        constraints = {name: pred for name, pred in self._items if name in wanted}
        return FieldQuery(self.schema, constraints)

    def extend(self, constraints: Mapping[str, object]) -> "FieldQuery":
        """A more specific query with additional constraints."""
        merged: dict[str, FieldPredicate] = dict(self._items)
        for name, value in constraints.items():
            pred = coerce(value)
            if name in merged and merged[name] != pred:
                raise SchemaError(f"conflicting constraint on {name!r}")
            merged[name] = pred
        return FieldQuery(self.schema, merged)

    # -- dunder --------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldQuery):
            return NotImplemented
        return self.schema is other.schema and self._items == other._items

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((id(self.schema), self._items))
        return self._hash

    def __repr__(self) -> str:
        pairs = ", ".join(f"{name}={pred.text!r}" for name, pred in self._items)
        return f"FieldQuery({pairs})"


class RecordKeys:
    """Every key of one record, from one table of chain texts: each value
    validated once, as :class:`Exact`, and spelled once as its chain
    (``[author[name[Alan]]]``); a key is :meth:`Schema.key_of` over the
    chains of its fields, so no key needs a :class:`FieldQuery`."""

    __slots__ = ("schema", "_exacts", "_chains", "msd_key", "_covering")

    def __init__(self, record: Record) -> None:
        self.schema = schema = record.schema
        self._exacts = {name: Exact(value) for name, value in record.items()}
        frames = schema.key_frames
        self._chains = {
            name: exact.predicate_texts(*frames[name])[0]
            for name, exact in self._exacts.items()
        }
        self.msd_key = schema.key_of(self._chains.values())
        self._covering: Optional[dict[str, tuple[str, ...]]] = None  # built on use

    def key(self, fields: Iterable[str]) -> str:
        """The key constraining ``fields`` to the record's values."""
        return self.schema.key_of([self._chains[name] for name in fields])

    def msd(self) -> FieldQuery:
        """The record's MSD, from the predicates and key already made."""
        query = FieldQuery(self.schema, self._exacts)
        query._key = self.msd_key
        return query

    def covering_keys(self) -> dict[str, tuple[str, ...]]:
        """Each exact key covering the record -- one per non-empty subset
        of its chains, joined as ``key_of`` joins -- to its fields."""
        if self._covering is None:
            subsets = [(f"/{self.schema.root}", ())]
            for chain, name in sorted(zip(self._chains.values(), self._chains)):
                subsets += [(text + chain, names + (name,)) for text, names in subsets]
            self._covering = dict(subsets[1:])
        return self._covering

    def most_specific(self, entries: list[str]) -> Optional[FieldQuery]:
        """Of entries that are exact keys or none, the covering one with
        most fields, the first of equals; made from the record's values."""
        covering = self.covering_keys()
        hits = covering.keys() & entries
        if not hits:
            return None
        key = min(hits, key=lambda hit: (-len(covering[hit]), entries.index(hit)))
        exacts = self._exacts
        query = FieldQuery(self.schema, {name: exacts[name] for name in covering[key]})
        query._key = key
        return query
