"""Entry selection as the engine did it per entry, kept as a differential oracle.

Until ``FieldQuery.select`` replaced it, this was the body of
``LookupEngine._select_entry``: parse every returned entry through the
public memo, test it against the target record field by field, rank it,
keep the first of the highest rank.  Tests compare the selection the
engine now makes against it on arbitrary entry lists.
"""

from __future__ import annotations

from typing import Optional

from repro.core.fields import Record, Schema
from repro.core.query import FieldQuery, QueryParseError


def select_entry_per_entry(
    schema: Schema, entries: list[str], target: Record
) -> Optional[FieldQuery]:
    """Pick the returned entry that matches the target record."""
    best: Optional[FieldQuery] = None
    best_rank: tuple[int, int] = (0, 0)
    for entry_key in entries:
        try:
            entry = FieldQuery.parse(schema, entry_key)
        except QueryParseError:
            continue
        if not entry.covers_record(target):
            continue
        # Prefer the most specific matching entry (an MSD if
        # present): more constrained fields first, then higher
        # predicate rank.  On exact-only entries this reduces to the
        # old field-count rule.
        rank = entry.specificity()
        if best is None or rank > best_rank:
            best, best_rank = entry, rank
    return best
