"""Per-lookup views of a ``repro.obs.reader.LookupTrace`` the trace tests
check: the nodes a lookup visited, and its waiting time rebuilt leg by
leg."""

from __future__ import annotations

from repro.obs.reader import LookupTrace


def visited_nodes(span: LookupTrace) -> set[int]:
    """Index/storage nodes that served this lookup (Fig 15 view)."""
    return {
        event.data["node"]
        for event in span.events
        if event.kind in ("index_step", "fetch_step")
    }


def waited_latency_ms(span: LookupTrace) -> float:
    """Virtual time the lookup spent waiting, reconstructed leg by leg.

    Sums every route leg on the lookup's critical path -- request and
    response legs of queries, fetches, failed deliveries, and replica
    failovers -- plus retry backoff waits.  Cache-insert legs are
    excluded: shortcut creation is fire-and-forget, so the lookup
    never waits for it.  Equals ``lookup_end.elapsed_ms`` (a pinned
    trace invariant).
    """
    total = 0.0
    for event in span.events:
        if event.kind == "dht_route_hop":
            if event.data["message"] != "cache_insert":
                total += event.data["latency_ms"]
        elif event.kind == "backoff":
            total += event.data["wait_ms"]
    return total
