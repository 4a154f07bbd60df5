#!/usr/bin/env python3
"""Interactive searching and partial-information (prefix) lookups.

Two features of Section IV the automated simulation doesn't show:

1. the *interactive* lookup mode, where the user reads each result set
   and refines by hand (here scripted step by step), and
2. *substring matching* index classes -- finding an author knowing only
   the first letters of their name, through the trie-over-DHT index: the
   scheme declares prefix levels for the field and a prefix lookup is an
   ordinary query whose constraint is a ``Prefix`` predicate.

Run:  python examples/interactive_search.py
"""

from repro.core import (
    ARTICLE_SCHEMA,
    FieldPredicates,
    FieldQuery,
    IndexService,
    InteractiveSession,
    LookupEngine,
    Prefix,
    Record,
    TrieIndex,
    simple_scheme,
)
from repro.dht import IdealRing, hash_key
from repro.net import SimulatedTransport
from repro.storage import DHTStorage

AUTHORS_AND_PAPERS = [
    ("Alan_Doe", "Wavelets", "INFOCOM", "1996"),
    ("Alan_Doe", "Filters", "ICASSP", "1998"),
    ("Alice_Dupont", "Codes", "ISIT", "1999"),
    ("John_Smith", "TCP", "SIGCOMM", "1989"),
    ("John_Smith", "IPv6", "INFOCOM", "1996"),
    ("Jorge_Santos", "Routing", "ICNP", "2000"),
]


def main() -> None:
    ring = IdealRing()
    for index in range(12):
        ring.add_node(hash_key(f"peer-{index}"))
    # One-letter and four-letter author prefix levels (Section IV-C).
    scheme = simple_scheme(
        predicates={
            "author": FieldPredicates(kinds=("prefix",), trie_levels=(1, 4))
        }
    )
    service = IndexService(
        ARTICLE_SCHEMA,
        scheme,
        DHTStorage(ring),
        DHTStorage(ring),
        SimulatedTransport(),
    )
    records = [
        Record(
            ARTICLE_SCHEMA,
            {"author": author, "title": title, "conf": conf, "year": year,
             "size": "250000"},
        )
        for author, title, conf, year in AUTHORS_AND_PAPERS
    ]
    for record in records:
        service.insert_record(record)
    TrieIndex(service).insert_all(records)

    # --- interactive walk: a user exploring John Smith's publications ---
    print("-- interactive session: author John_Smith --")
    session = InteractiveSession(
        service, FieldQuery(ARTICLE_SCHEMA, {"author": "John_Smith"})
    )
    print(f"level 1 ({session.current.query.key()}):")
    for index, entry in enumerate(session.choices()):
        print(f"   [{index}] {entry}")
    session.refine(0)
    print(f"level 2 ({session.current.query.key()}):")
    for index, entry in enumerate(session.choices()):
        print(f"   [{index}] {entry}")
    session.refine(0)
    print(f"level 3 is the most specific descriptor; fetching the file ...")
    print(f"   fetched: {session.fetch()} ({session.fetched_msd})")

    # Back up and take the other branch.
    session.back()
    print(f"back at level 2; other siblings remain explorable")

    # --- prefix search: the user only remembers "Al..." ---
    print("\n-- prefix exploration: authors starting with 'A' --")
    starts_with_a = FieldQuery(ARTICLE_SCHEMA, {"author": Prefix("A")})
    session = InteractiveSession(service, starts_with_a)
    for entry in session.choices():
        print("   ", entry)
    print("-- refining to 'Alan' --")
    session.refine(0)
    for entry in session.choices():
        print("   ", entry)

    engine = LookupEngine(service, user="user:demo")
    target = records[1]  # Alan_Doe's "Filters"
    trace = engine.search(starts_with_a, target)
    print(
        f"\nfull search from one letter: found={trace.found} in "
        f"{trace.interactions} interactions"
    )
    path = " -> ".join(key for _, key in trace.visited)
    print(f"path: {path}")


if __name__ == "__main__":
    main()
