#!/usr/bin/env python3
"""Quickstart: the paper's running example, end to end.

Builds a small P2P overlay, stores the three articles of Figure 1 with
the hierarchical indexing scheme of Figure 4, and then locates them with
the broad queries of Figure 2 -- following index paths down the partial
order of Figure 3 exactly as Section IV-B describes.

Run:  python examples/quickstart.py
"""

from repro.core import (
    ARTICLE_SCHEMA,
    FieldQuery,
    IndexService,
    LookupEngine,
    Record,
    simple_scheme,
)
from repro.dht import IdealRing, hash_key
from repro.net import SimulatedTransport
from repro.storage import DHTStorage


def main() -> None:
    # 1. A P2P overlay of 16 peers (any DHT works; the ideal ring is the
    #    paper's own abstraction of the substrate).
    ring = IdealRing()
    for index in range(16):
        ring.add_node(hash_key(f"peer-{index}"))

    # 2. The index service: storage for files, storage for query-to-query
    #    index mappings, and the "simple" hierarchy of Figure 8.
    transport = SimulatedTransport()
    service = IndexService(
        schema=ARTICLE_SCHEMA,
        scheme=simple_scheme(),
        index_store=DHTStorage(ring),
        file_store=DHTStorage(ring),
        transport=transport,
    )

    # 3. Insert the three articles of Figure 1.
    articles = [
        Record(ARTICLE_SCHEMA, {"author": "John_Smith", "title": "TCP",
                                "conf": "SIGCOMM", "year": "1989",
                                "size": "315635"}),
        Record(ARTICLE_SCHEMA, {"author": "John_Smith", "title": "IPv6",
                                "conf": "INFOCOM", "year": "1996",
                                "size": "312352"}),
        Record(ARTICLE_SCHEMA, {"author": "Alan_Doe", "title": "Wavelets",
                                "conf": "INFOCOM", "year": "1996",
                                "size": "259827"}),
    ]
    for article in articles:
        msd = service.insert_record(article)
        print(f"stored {article['title']:<9} under h({msd.key()})")

    # 4. Interactive search (Section IV-B): one step at a time.
    print("\n-- interactive: /article/author/last/Smith (q6 of Figure 2) --")
    engine = LookupEngine(service, user="user:quickstart")
    author_query = FieldQuery(ARTICLE_SCHEMA, {"author": "John_Smith"})
    for entry in engine.explore(author_query):
        print("  index returned:", entry)

    # 5. Automated search: the engine walks the index path to the file.
    print("\n-- automated: locate each article from a broad query --")
    for article, fields in [
        (articles[0], ["author"]),
        (articles[1], ["conf"]),
        (articles[2], ["title"]),
    ]:
        query = FieldQuery.of_record(article, fields)
        trace = engine.search(query, article)
        path = " -> ".join(key for _, key in trace.visited)
        print(f"  {query.key()}")
        print(f"    found={trace.found} in {trace.interactions} interactions")
        print(f"    path: {path}")

    # 6. A query that is valid but not indexed (author+year): the engine
    #    generalizes it and still finds the file, one interaction dearer.
    print("\n-- non-indexed query: author+year (Table I scenario) --")
    ay_query = FieldQuery.of_record(articles[1], ["author", "year"])
    trace = engine.search(ay_query, articles[1])
    print(f"  {ay_query.key()}")
    print(
        f"    found={trace.found} in {trace.interactions} interactions "
        f"(errors={trace.errors}, generalized={trace.generalized})"
    )

    print(f"\ntotal traffic: {transport.meter.total_bytes:,} bytes")


if __name__ == "__main__":
    main()
