#!/usr/bin/env python3
"""The query layer by itself: Figures 1-3 on the field-query algebra.

The indexing system rests on three ideas from Section III-B: descriptors
are semi-structured, queries are an XPath subset, and queries form a
partial order under *covering*.  The index layer works on field queries:
a :class:`Schema` maps each field to its element path in the descriptor,
a :class:`FieldQuery` is a conjunction of per-field predicates whose
``key()`` is the canonical XPath hashed into the DHT, and covering is
decided field by field.  This example rebuilds the paper's figures on
that algebra, with the paper's own data and no network at all.

Run:  python examples/xpath_queries.py
"""

from repro.core import FieldQuery, Range, Record, Schema
from repro.xmlq import normalize_xpath

#: Figure 1's descriptor layout: an author is a first and a last name.
SCHEMA = Schema(
    root="article",
    fields={
        "first": "author/first",
        "last": "author/last",
        "title": "title",
        "conf": "conf",
        "year": "year",
    },
    admin={"size": "size"},
)

DESCRIPTORS = {
    "d1": dict(first="John", last="Smith", title="TCP", conf="SIGCOMM",
               year="1989", size="315635"),
    "d2": dict(first="John", last="Smith", title="IPv6", conf="INFOCOM",
               year="1996", size="312352"),
    "d3": dict(first="Alan", last="Doe", title="Wavelets", conf="INFOCOM",
               year="1996", size="259827"),
}

#: Figure 2's queries, as field constraints.
QUERIES = {
    "q1": DESCRIPTORS["d1"],
    "q2": dict(first="John", last="Smith", conf="INFOCOM"),
    "q3": dict(first="John", last="Smith"),
    "q4": dict(title="TCP"),
    "q5": dict(conf="INFOCOM"),
    "q6": dict(last="Smith"),
}


def main() -> None:
    records = {name: Record(SCHEMA, values) for name, values in DESCRIPTORS.items()}
    queries = {name: FieldQuery(SCHEMA, values) for name, values in QUERIES.items()}

    print("-- each descriptor's most specific query (MSD) --")
    for name, record in records.items():
        print(f"  {name}: {FieldQuery.msd_of(record).key()}")

    print("\n-- matching matrix (Figures 1 and 2) --")
    print("     " + "  ".join(queries))
    for d_name, record in records.items():
        cells = [
            " X " if query.covers_record(record) else " . "
            for query in queries.values()
        ]
        print(f"{d_name}:  " + "  ".join(cells))

    print("\n-- equivalent spellings normalize to one canonical key --")
    for spelling in (
        "/article/author/last/Smith",
        "/article[author/last/Smith]",
        "/article[author[last[Smith]]]",
    ):
        print(f"  {spelling:<40} -> {normalize_xpath(spelling)}")
    print(f"  q6.key() = {queries['q6'].key()}")

    print("\n-- covering relations (arrows of Figure 3) --")
    expectations = [
        ("q3", "q1"), ("q4", "q1"), ("q3", "q2"), ("q5", "q2"), ("q6", "q3"),
    ]
    for general, specific in expectations:
        held = queries[general].covers(queries[specific])
        print(f"  {general} covers {specific}: {held}")
    print(f"  q6 covers q1 (transitively): "
          f"{queries['q6'].covers(queries['q1'])}")
    print(f"  q5 covers q1 (should be False): "
          f"{queries['q5'].covers(queries['q1'])}")

    print("\n-- the partial order, computed from pairwise covering --")
    above = {
        name: {
            other for other, general in queries.items()
            if other != name and general.covers(query)
        }
        for name, query in queries.items()
    }
    print("  roots (most general): " + ", ".join(
        name for name, generals in above.items() if not generals
    ))
    print("  Hasse edges (specific -> general):")
    for name, generals in above.items():
        for general in sorted(generals):
            if not any(general in above[middle] for middle in generals):
                print(f"    {name} -> {general}")

    print("\n-- range queries via predicates --")
    nineties = FieldQuery(SCHEMA, {"year": Range(1990, 1999)})
    for name, record in records.items():
        print(f"  {name} matches {nineties.key()}: "
              f"{nineties.covers_record(record)}")


if __name__ == "__main__":
    main()
