"""Indexing schemes: hierarchies of index classes (Figure 8).

An *index class* groups the index entries keyed by one combination of
fields -- e.g. the ``Author`` index of Figure 4 is the class keyed by
``{author}``.  An :class:`IndexScheme` is a DAG over index classes: an
edge from class ``K`` to class ``K'`` (with ``K ⊂ K'``) means that looking
up a ``K``-query returns the matching ``K'``-queries.  Terminal edges
point at :data:`MSD_TARGET`, the most specific descriptor, which the
underlying storage resolves to the file itself.

The three schemes evaluated in the paper:

- **simple** -- author and title queries resolve to author+title pairs;
  conference and year queries resolve to conference+year pairs; the pairs
  resolve to MSDs (Figure 8, left).
- **flat** -- every query class points directly at the MSD, so the index
  chain length is always 2 (Figure 8, center).
- **complex** -- some simple-scheme queries are split further: an author
  query resolves to author+conference pairs, which resolve to
  author+conference+year triples before reaching the MSD (Figure 8,
  right).  Deeper hierarchies trade lookup steps for shorter result sets.

Schemes also support explicit *shortcut* edges (Section IV-C: a popular
file "can be linked to deep in the hierarchy to short-circuit some
indexes"), used by the shortcut ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union

from repro.core.fields import Record, Schema
from repro.core.predicates import PREDICATE_KINDS, Prefix, Wildcard
from repro.core.query import FieldQuery, RecordKeys

#: Sentinel target: the most specific descriptor of a record.
MSD_TARGET = "MSD"

KeySet = frozenset[str]


class SchemeValidationError(ValueError):
    """Raised when a scheme's edges violate the covering discipline."""


@dataclass(frozen=True)
class FieldPredicates:
    """Predicate support a scheme declares for one field.

    ``kinds`` lists the non-exact predicate kinds the scheme resolves on
    this field (``"prefix"``, ``"wildcard"``, ``"range"``); exact
    equality is always supported.  ``trie_levels`` are the prefix depths
    at which the trie-over-DHT index materializes interior nodes for the
    field -- empty means no trie, in which case predicate queries fall
    back to the engine's specialization path.
    """

    kinds: tuple[str, ...] = ()
    trie_levels: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        kinds = tuple(self.kinds)
        levels = tuple(int(level) for level in self.trie_levels)
        object.__setattr__(self, "kinds", kinds)
        object.__setattr__(self, "trie_levels", levels)
        unknown = set(kinds) - set(PREDICATE_KINDS)
        if unknown:
            raise SchemeValidationError(
                f"unknown predicate kinds: {sorted(unknown)}"
            )
        if any(level < 1 for level in levels):
            raise SchemeValidationError("trie levels must be >= 1")
        if list(levels) != sorted(set(levels)):
            raise SchemeValidationError(
                "trie levels must be strictly increasing"
            )
        if levels and not kinds:
            raise SchemeValidationError(
                "trie levels declared without any predicate kinds"
            )


def article_predicates() -> dict[str, FieldPredicates]:
    """The default predicate declarations for the article schema.

    Author and title support prefix and wildcard constraints with
    one- and two-letter trie levels (Section IV-C's "files of an author
    that start with the letter 'A'"); year supports numeric ranges with
    century/decade trie levels.
    """
    return {
        "author": FieldPredicates(kinds=("prefix", "wildcard"), trie_levels=(1, 2)),
        "title": FieldPredicates(kinds=("prefix", "wildcard"), trie_levels=(1, 2)),
        "year": FieldPredicates(kinds=("range",), trie_levels=(2, 3)),
    }


class IndexScheme:
    """A DAG of index classes over a schema's fields."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        edges: Mapping[Iterable[str], Iterable[object]],
        predicates: Optional[Mapping[str, FieldPredicates]] = None,
    ) -> None:
        """Build a scheme from an edge map.

        ``edges`` maps each index-class keyset to the keysets it resolves
        to; the string :data:`MSD_TARGET` denotes the terminal MSD target.
        Every target keyset must be a strict superset of its source (this
        is the paper's covering discipline: an index key must cover every
        entry stored under it) and every target class must itself be
        resolvable (appear as a source or be the MSD).

        ``predicates`` optionally declares, per field, which non-exact
        predicate kinds the scheme resolves (and at which trie levels
        the trie-over-DHT index materializes interior nodes) -- see
        :class:`FieldPredicates`.  A field with trie levels must have a
        singleton index class, the hand-over point where trie walks
        rejoin the ordinary covering chains.
        """
        self.name = name
        self.schema = schema
        normalized: dict[KeySet, list[object]] = {}
        for source, targets in edges.items():
            source_set = self._as_keyset(source)
            target_list: list[object] = []
            for target in targets:
                if target == MSD_TARGET:
                    target_list.append(MSD_TARGET)
                else:
                    target_list.append(self._as_keyset(target))
            normalized[source_set] = target_list
        self._edges = normalized
        self.predicates: dict[str, FieldPredicates] = dict(predicates or {})
        self._validate()
        self._validate_predicates()

    def _as_keyset(self, fields: Iterable[str]) -> KeySet:
        keyset = frozenset(fields)
        if not keyset:
            raise SchemeValidationError("an index class needs at least one field")
        unknown = keyset - set(self.schema.field_names)
        if unknown:
            raise SchemeValidationError(
                f"index class uses non-queryable fields: {sorted(unknown)}"
            )
        return keyset

    def _validate(self) -> None:
        for source, targets in self._edges.items():
            if not targets:
                raise SchemeValidationError(
                    f"index class {set(source)} resolves to nothing"
                )
            for target in targets:
                if target == MSD_TARGET:
                    continue
                assert isinstance(target, frozenset)
                if not source < target:
                    raise SchemeValidationError(
                        f"edge {set(source)} -> {set(target)} breaks covering: "
                        "the target must be a strict superset"
                    )
                if target not in self._edges:
                    raise SchemeValidationError(
                        f"target class {set(target)} is not resolvable"
                    )
        # Superset discipline already rules out cycles; nothing more to check.

    def _validate_predicates(self) -> None:
        for field_name, declared in self.predicates.items():
            if field_name not in self.schema.field_names:
                raise SchemeValidationError(
                    f"predicate declaration on non-queryable field "
                    f"{field_name!r}"
                )
            if not isinstance(declared, FieldPredicates):
                raise SchemeValidationError(
                    f"predicate declaration for {field_name!r} must be a "
                    "FieldPredicates"
                )
            if declared.trie_levels and frozenset({field_name}) not in self._edges:
                raise SchemeValidationError(
                    f"trie levels on {field_name!r} need a singleton index "
                    "class to hand over to"
                )

    # -- predicate queries -------------------------------------------------------

    def accepts(self, query: FieldQuery) -> bool:
        """True when every non-exact predicate of the query is declared.

        An accepting scheme resolves the query either through its trie
        (when trie levels are declared) or through the engine's
        specialization fallback; a non-accepting scheme treats the query
        like any other non-indexed shape.
        """
        for name, predicate in query.predicate_items:
            if predicate.kind == "exact":
                continue
            declared = self.predicates.get(name)
            if declared is None or predicate.kind not in declared.kinds:
                return False
        return True

    def trie_entry_for(self, query: FieldQuery) -> Optional[FieldQuery]:
        """The trie node a predicate query's walk starts from, or None.

        Knowing the trie discipline (which levels exist) is scheme
        knowledge, exactly like knowing ``h(q)``: the user rewrites the
        predicate into the deepest materialized trie node whose prefix
        is shared by *every* matching value -- the predicate's anchor --
        and descends from there by ordinary lookups.  Returns None when
        the query is exact-only or some non-exact field has no declared
        trie, in which case the engine keeps the seed behaviour.
        """
        for name, predicate in query.predicate_items:
            if predicate.kind == "exact":
                continue
            declared = self.predicates.get(name)
            if (
                declared is None
                or predicate.kind not in declared.kinds
                or not declared.trie_levels
            ):
                return None
            anchor = predicate.trie_anchor
            depth = max(
                (level for level in declared.trie_levels if level <= len(anchor)),
                default=0,
            )
            if depth:
                return FieldQuery(self.schema, {name: Prefix(anchor[:depth])})
            return FieldQuery(self.schema, {name: Wildcard("*")})
        return None

    # -- introspection ----------------------------------------------------------

    @property
    def index_classes(self) -> list[KeySet]:
        """All index-class keysets, most general first."""
        return sorted(self._edges, key=lambda keyset: (len(keyset), sorted(keyset)))

    def targets_of(self, keyset: Iterable[str]) -> list[object]:
        """Resolution targets of an index class (keysets or MSD_TARGET)."""
        return list(self._edges[frozenset(keyset)])

    def is_indexed(self, fields: Iterable[str]) -> bool:
        """True when queries over exactly these fields are an index class."""
        return frozenset(fields) in self._edges

    def entry_classes(self) -> list[KeySet]:
        """Classes that are not the target of any other class.

        These are the hierarchy's entry points: the query shapes a user
        can start from without prior information.
        """
        targeted: set[KeySet] = set()
        for targets in self._edges.values():
            for target in targets:
                if target != MSD_TARGET:
                    assert isinstance(target, frozenset)
                    targeted.add(target)
        return [keyset for keyset in self.index_classes if keyset not in targeted]

    def chain_length(self, fields: Iterable[str]) -> int:
        """Worst-case index-path length from this class to the file.

        Counts user-system interactions: one per index class traversed,
        plus one for the MSD-to-file resolution.
        """
        keyset = frozenset(fields)
        if keyset not in self._edges:
            raise KeyError(f"not an index class: {set(keyset)}")
        longest = 0
        for target in self._edges[keyset]:
            if target == MSD_TARGET:
                longest = max(longest, 1)
            else:
                assert isinstance(target, frozenset)
                longest = max(longest, self.chain_length(target))
        return 1 + longest

    # -- index entry generation ----------------------------------------------------

    def mappings_for(self, record: Union[Record, RecordKeys]) -> list[tuple[str, str]]:
        """All (index key -> more specific key) mappings for a record.

        For each edge ``K -> K'`` the record contributes the key pair
        ``(q_K(record); q_K'(record))``; MSD targets map to its MSD key.
        A pair produced through several edges is kept once, where first
        produced.  Each class's key is built once, from the record's
        :class:`RecordKeys` (pass them when already built).
        """
        keys = record if isinstance(record, RecordKeys) else RecordKeys(record)
        built: dict[object, str] = {keyset: keys.key(keyset) for keyset in self._edges}
        built[MSD_TARGET] = keys.msd_key
        pairs = (
            (built[source], built[target])
            for source, targets in self._edges.items()
            for target in targets
        )
        return list(dict.fromkeys(pairs))

    def shortcut_mapping(
        self, record: Record, fields: Iterable[str]
    ) -> tuple[str, str]:
        """A deep link (Section IV-C): index key -> the record's MSD key.

        E.g. ``shortcut_mapping(record, {"author"})`` produces the
        ``(q6; d1)`` entry of the paper, letting a popular file be reached
        from a broad query in a single step.
        """
        keyset = frozenset(fields)
        if keyset not in self._edges:
            raise KeyError(f"not an index class: {set(keyset)}")
        keys = RecordKeys(record)
        return keys.key(keyset), keys.msd_key

    def __repr__(self) -> str:
        return f"IndexScheme({self.name!r}, {len(self._edges)} classes)"


def simple_scheme(
    schema: Optional[Schema] = None,
    predicates: Optional[Mapping[str, FieldPredicates]] = None,
) -> IndexScheme:
    """The paper's *simple* scheme (Figure 8, left)."""
    schema = schema or _default_schema()
    return IndexScheme(
        "simple",
        schema,
        {
            ("author",): [("author", "title")],
            ("title",): [("author", "title")],
            ("author", "title"): [MSD_TARGET],
            ("conf",): [("conf", "year")],
            ("year",): [("conf", "year")],
            ("conf", "year"): [MSD_TARGET],
        },
        predicates=predicates,
    )


def flat_scheme(
    schema: Optional[Schema] = None,
    predicates: Optional[Mapping[str, FieldPredicates]] = None,
) -> IndexScheme:
    """The paper's *flat* scheme (Figure 8, center): everything -> MSD."""
    schema = schema or _default_schema()
    return IndexScheme(
        "flat",
        schema,
        {
            ("author",): [MSD_TARGET],
            ("title",): [MSD_TARGET],
            ("author", "title"): [MSD_TARGET],
            ("conf",): [MSD_TARGET],
            ("year",): [MSD_TARGET],
            ("conf", "year"): [MSD_TARGET],
        },
        predicates=predicates,
    )


def complex_scheme(
    schema: Optional[Schema] = None,
    predicates: Optional[Mapping[str, FieldPredicates]] = None,
) -> IndexScheme:
    """The paper's *complex* scheme (Figure 8, right).

    Author queries are split through author+conference and
    author+conference+year levels "in order to avoid long result lists":
    deeper chains, shorter result sets.
    """
    schema = schema or _default_schema()
    return IndexScheme(
        "complex",
        schema,
        {
            ("author",): [("author", "conf")],
            ("title",): [("author", "title")],
            ("author", "title"): [MSD_TARGET],
            ("author", "conf"): [("author", "conf", "year")],
            ("author", "conf", "year"): [MSD_TARGET],
            ("conf",): [("conf", "year")],
            ("year",): [("conf", "year")],
            ("conf", "year"): [MSD_TARGET],
        },
        predicates=predicates,
    )


#: The paper's evaluation schemes by name (Figure 8) -- the one table
#: behind ``--scheme`` in the simulator, the node daemon and the client.
SCHEMES = {
    "simple": simple_scheme,
    "flat": flat_scheme,
    "complex": complex_scheme,
}


def build_scheme(
    name: str,
    schema: Optional[Schema] = None,
    predicates: Optional[Mapping[str, FieldPredicates]] = None,
) -> IndexScheme:
    """The named index scheme from the paper's evaluation."""
    if name not in SCHEMES:
        raise ValueError(f"unknown scheme: {name!r}")
    return SCHEMES[name](schema, predicates=predicates)


def _default_schema() -> Schema:
    from repro.core.fields import ARTICLE_SCHEMA

    return ARTICLE_SCHEMA
