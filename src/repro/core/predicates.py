"""Typed field predicates: the query algebra over descriptor fields.

The paper's queries are conjunctions of per-field constraints.  The seed
implemented equality only; Section IV-C sketches how "more generic
queries can be obtained ... using substring matching", and the related
trie-over-DHT literature generalizes that to wildcard and range lookups.
This module is the algebra those layers share: each field constraint is
one of

- :class:`Exact`    -- ``field = value`` (the seed semantics);
- :class:`Prefix`   -- ``field`` starts with a string (Section IV-C);
- :class:`Wildcard` -- glob with ``*`` segments (``"Al*n"``);
- :class:`Range`    -- numeric closed interval (``year in [1995, 2000]``).

Every predicate knows three things:

``matches(value)``
    whether a concrete field value satisfies it;
``covers(other)``
    predicate implication: every value matching ``other`` also matches
    ``self``.  Together with subset-of-constraints this defines query
    covering.  The relation is *sound but conservative* for wildcard
    pairs (undecidable cases return False); the exact/prefix/range
    fragments are complete and pinned against the
    tree-pattern homomorphism oracle of the test tree;
``predicate_texts(chain, closing)``
    its canonical XPath predicate spelling(s) between a field's opening
    tag chain and closing brackets (``[author[name`` ... ``]]``, from
    :attr:`repro.core.fields.Schema.key_frames`), fixed points of
    :func:`repro.xmlq.normalize.normalize_xpath` so predicate keys hash
    and travel exactly like the seed's equality keys:

    =========  ==================================================
    Exact      ``[author[name[Alan]]]``
    Prefix     ``[author[name[prefix:Al]]]``
    Wildcard   ``[author[name="Al*n"]]``
    Range      ``[year>=1995][year<=2000]`` (two comparison preds)
    =========  ==================================================

    :meth:`repro.core.query.FieldQuery.parse` reads these spellings back
    by bracket structure alone, so the constructors refuse the
    characters that would make a key ambiguous: brackets anywhere,
    comparison operators in an exact value.  Everything else -- spaces,
    ``/``, any unicode -- round-trips.

``rank()`` orders predicates by specificity (exact above prefix above
wildcard above range) for the engine's entry selection, and
``trie_anchor`` exposes the literal prefix shared by all matching
values, which is what the trie-over-DHT index descends by.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from repro.core.fields import SchemaError

#: Marker distinguishing prefix constraints inside canonical key text.
PREFIX_TAG = "prefix:"
#: Construction-side spelling of a range (``range:LO:HI``).  Key text
#: always uses comparison predicates; a ``range:`` leaf in a key is
#: rejected so every query has exactly one canonical spelling.
RANGE_TAG = "range:"

#: The lexer's bare-word class, which prefixes are held to.
_BARE_WORD_RE = re.compile(r"[\w.\-:+]+\Z")
#: Characters an exact value may not contain: wildcard and quote marks
#: (other kinds' spellings), and the brackets and comparison operators
#: by which the key decoder tells structure from value.
_EXACT_RESERVED_RE = re.compile(r"""[*"'\[\]=<>]""")
#: A wildcard pattern travels quoted, so only quotes and brackets are out.
_WILDCARD_RESERVED_RE = re.compile(r"""["'\[\]]""")

#: Exact specificity dominates any literal length a prefix or wildcard
#: could reach.
_EXACT_RANK = 1 << 20


class PredicateError(SchemaError):
    """Raised for malformed predicate constructions or spellings."""


@dataclass(frozen=True)
class Exact:
    """Equality: the field has exactly this value."""

    value: str

    kind = "exact"

    def __post_init__(self) -> None:
        value = str(self.value)
        object.__setattr__(self, "value", value)
        if not value:
            raise PredicateError("an exact constraint cannot be empty")
        if value.startswith(PREFIX_TAG) or value.startswith(RANGE_TAG):
            raise PredicateError(
                f"exact value {value!r} collides with a reserved predicate tag"
            )
        if _EXACT_RESERVED_RE.search(value):
            raise PredicateError(
                f"exact value {value!r} contains a character reserved by the "
                "key grammar (one of * \" ' [ ] = < >)"
            )

    def matches(self, value: str) -> bool:
        """True when the value equals this constraint exactly."""
        return value == self.value

    def covers(self, other: "FieldPredicate") -> bool:
        """Equality implies only equality to the same value."""
        return other.kind == "exact" and other.value == self.value

    def rank(self) -> int:
        """Specificity rank: exact dominates every other kind."""
        return _EXACT_RANK

    @property
    def text(self) -> str:
        return self.value

    @property
    def trie_anchor(self) -> str:
        return self.value

    def predicate_texts(self, chain: str, closing: str) -> list[str]:
        """Canonical spelling: the value nested in the field path."""
        return [f"{chain}[{self.value}]{closing}"]

    def __repr__(self) -> str:
        return f"Exact({self.value!r})"


@dataclass(frozen=True)
class Prefix:
    """The field value starts with ``prefix``."""

    prefix: str

    kind = "prefix"

    def __post_init__(self) -> None:
        prefix = str(self.prefix)
        object.__setattr__(self, "prefix", prefix)
        if not prefix:
            raise PredicateError("a prefix constraint cannot be empty")
        if not _BARE_WORD_RE.match(prefix):
            raise PredicateError(
                f"prefix {prefix!r} is not a bare word (its key would not parse)"
            )

    def matches(self, value: str) -> bool:
        """True when the value starts with the prefix."""
        return value.startswith(self.prefix)

    def covers(self, other: "FieldPredicate") -> bool:
        """Prefix implication: the other constraint forces this prefix."""
        if other.kind == "exact":
            return other.value.startswith(self.prefix)
        if other.kind == "prefix":
            return other.prefix.startswith(self.prefix)
        if other.kind == "wildcard":
            # Every wildcard match starts with the pattern's first
            # literal, so implication holds iff that literal already
            # carries this prefix.
            return other.pattern.split("*", 1)[0].startswith(self.prefix)
        return False

    def rank(self) -> int:
        """Specificity rank: longer prefixes are more specific."""
        return len(self.prefix)

    @property
    def text(self) -> str:
        return f"{PREFIX_TAG}{self.prefix}"

    @property
    def trie_anchor(self) -> str:
        return self.prefix

    def predicate_texts(self, chain: str, closing: str) -> list[str]:
        """Canonical spelling: the tagged prefix nested in the path."""
        return [f"{chain}[{PREFIX_TAG}{self.prefix}]{closing}"]

    def __repr__(self) -> str:
        return f"Prefix({self.prefix!r})"


@dataclass(frozen=True)
class Wildcard:
    """Glob over the field value: literal segments joined by ``*``.

    ``*`` matches any (possibly empty) substring; ``"*"`` alone is the
    universal constraint and doubles as the trie root of a field.
    """

    pattern: str

    kind = "wildcard"

    def __post_init__(self) -> None:
        pattern = str(self.pattern)
        object.__setattr__(self, "pattern", pattern)
        if "*" not in pattern:
            raise PredicateError(
                f"wildcard pattern {pattern!r} has no '*' (use an exact value)"
            )
        if _WILDCARD_RESERVED_RE.search(pattern):
            raise PredicateError(
                f"wildcard pattern {pattern!r} contains quote or bracket "
                "characters"
            )

    def matches(self, value: str) -> bool:
        """Greedy glob match: ``*`` spans any (even empty) substring."""
        segments = self.pattern.split("*")
        if not value.startswith(segments[0]):
            return False
        if not value.endswith(segments[-1]):
            return False
        position = len(segments[0])
        end = len(value) - len(segments[-1])
        for segment in segments[1:-1]:
            if not segment:
                continue
            found = value.find(segment, position, end)
            if found < 0:
                return False
            position = found + len(segment)
        return position <= end

    def covers(self, other: "FieldPredicate") -> bool:
        """Sound (conservative) wildcard implication; see module doc."""
        if self.pattern == "*":
            return True
        if other.kind == "exact":
            return self.matches(other.value)
        if other.kind == "prefix":
            # Sound iff the pattern leaves the tail free: then any
            # extension of a matching prefix still matches.
            return self.pattern.endswith("*") and self.matches(other.prefix)
        if other.kind == "wildcard":
            if other.pattern == self.pattern:
                return True
            # "lit*" covers any pattern whose first literal extends lit.
            if self.pattern.count("*") == 1 and self.pattern.endswith("*"):
                literal = self.pattern[:-1]
                return other.pattern.split("*", 1)[0].startswith(literal)
            return False
        return False

    def rank(self) -> int:
        """Specificity rank: total literal length of the pattern."""
        return sum(len(segment) for segment in self.pattern.split("*"))

    @property
    def text(self) -> str:
        return self.pattern

    @property
    def trie_anchor(self) -> str:
        return self.pattern.split("*", 1)[0]

    def predicate_texts(self, chain: str, closing: str) -> list[str]:
        """Canonical spelling: a quoted comparison on the leaf tag."""
        # '*' is never a bare word, so the comparison literal is always
        # double-quoted -- exactly the normalizer's serialization.
        return [f'{chain}="{self.pattern}"{closing}']

    def __repr__(self) -> str:
        return f"Wildcard({self.pattern!r})"


@dataclass(frozen=True)
class Range:
    """Numeric closed interval: ``lo <= int(value) <= hi``."""

    lo: int
    hi: int

    kind = "range"

    def __post_init__(self) -> None:
        try:
            lo, hi = int(self.lo), int(self.hi)
        except (TypeError, ValueError) as error:
            raise PredicateError(
                f"range bounds must be integers: {self.lo!r}..{self.hi!r}"
            ) from error
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo > hi:
            raise PredicateError(f"empty range: {lo} > {hi}")

    def matches(self, value: str) -> bool:
        """True when the value is numeric and inside the interval."""
        try:
            return self.lo <= int(value) <= self.hi
        except (TypeError, ValueError):
            return False

    def covers(self, other: "FieldPredicate") -> bool:
        """Interval containment (and membership for exact values)."""
        if other.kind == "exact":
            return self.matches(other.value)
        if other.kind == "range":
            return self.lo <= other.lo and other.hi <= self.hi
        return False

    def rank(self) -> int:
        """Specificity rank: ranges are the least specific kind."""
        return 0

    @property
    def text(self) -> str:
        return f"{RANGE_TAG}{self.lo}:{self.hi}"

    @property
    def trie_anchor(self) -> str:
        lo, hi = str(self.lo), str(self.hi)
        if len(lo) != len(hi):
            return ""
        anchor = 0
        while anchor < len(lo) and lo[anchor] == hi[anchor]:
            anchor += 1
        return lo[:anchor]

    def predicate_texts(self, chain: str, closing: str) -> list[str]:
        """Canonical spelling: the ``>=``/``<=`` comparison pair."""
        return [f"{chain}>={self.lo}{closing}", f"{chain}<={self.hi}{closing}"]

    def __repr__(self) -> str:
        return f"Range({self.lo}, {self.hi})"


FieldPredicate = Union[Exact, Prefix, Wildcard, Range]

#: Predicate kinds a scheme may declare per field (exact is always legal).
PREDICATE_KINDS = ("prefix", "wildcard", "range")


def coerce(constraint: object) -> FieldPredicate:
    """Normalize a constraint spelling into a predicate object.

    Strings use the construction DSL: ``prefix:Al`` -> :class:`Prefix`,
    ``range:1995:2000`` -> :class:`Range`, any ``*``-bearing string ->
    :class:`Wildcard`, anything else -> :class:`Exact`.  Predicate
    objects pass through.  Malformed spellings raise
    :class:`PredicateError`.
    """
    if isinstance(constraint, (Exact, Prefix, Wildcard, Range)):
        return constraint
    text = str(constraint)
    if text.startswith(PREFIX_TAG):
        return Prefix(text[len(PREFIX_TAG):])
    if text.startswith(RANGE_TAG):
        body = text[len(RANGE_TAG):]
        parts = body.split(":")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise PredicateError(
                f"malformed range spelling {text!r} (want range:LO:HI)"
            )
        return Range(parts[0], parts[1])
    if "*" in text:
        return Wildcard(text)
    return Exact(text)

