#!/usr/bin/env python3
"""End-to-end demo over real sockets: a loopback cluster of daemons.

Boots a :class:`repro.rpc.cluster.LocalCluster` of node daemons on
ephemeral loopback ports (TCP, real frames through the
:mod:`repro.rpc.codec` wire format), publishes a synthetic corpus
through a wire client, then resolves seeded covering-chain lookups and
prints the traffic/trace summary.  Exits 0 only if every lookup found
its file.

Run:  python examples/real_cluster.py --nodes 5 --records 20 --lookups 50

The corpus, query sequence, and overlay layout are seeded, so covering
chains and replica placement are reproducible; only ports and wall-clock
latencies differ between runs.  ``--trace-out lookups.jsonl`` also saves
the observability trace (same JSONL schema as the simulation's) and
prints its summary tables.
"""

from __future__ import annotations

import argparse
import random
import sys

from repro.core.query import FieldQuery
from repro.core.scheme import SCHEMES
from repro.dht import SUBSTRATES
from repro.obs.summarize import summarize_file
from repro.obs.tracer import Tracer
from repro.perf import counters
from repro.rpc.cluster import LocalCluster
from repro.workload.corpus import CorpusConfig, SyntheticCorpus


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=5)
    parser.add_argument("--records", type=int, default=20)
    parser.add_argument("--lookups", type=int, default=50)
    parser.add_argument("--substrate", choices=SUBSTRATES, default="chord")
    parser.add_argument("--scheme", choices=SCHEMES, default="simple")
    parser.add_argument(
        "--cache", default="multi",
        help="shortcut cache policy: none, multi, single, or lruN",
    )
    parser.add_argument("--replication", type=int, default=1)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--signed", action="store_true",
        help=(
            "give every daemon an ed25519 identity and require signed "
            "frames end to end (version-2 wire format)"
        ),
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the lookup trace (JSONL) here and print its summary",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    corpus = SyntheticCorpus(
        CorpusConfig(
            num_articles=args.records,
            num_authors=max(2, args.records // 3),
            seed=args.seed,
        )
    )
    tracer = Tracer(
        meta={
            "harness": "real_cluster",
            "substrate": args.substrate,
            "scheme": args.scheme,
            "cache": args.cache,
            "num_nodes": args.nodes,
            "num_articles": args.records,
            "num_queries": args.lookups,
            "seed": args.seed,
        }
    )
    print(
        f"booting {args.nodes} daemons "
        f"({args.substrate}/{args.scheme}/cache={args.cache}"
        f"{', signed frames required' if args.signed else ''}) ..."
    )
    cluster = LocalCluster(
        args.nodes,
        substrate=args.substrate,
        scheme=args.scheme,
        cache=args.cache,
        replication=args.replication,
        signed=args.signed,
    )
    with cluster:
        client = cluster.client(tracer=tracer)
        for daemon in cluster.daemons:
            host, port = daemon.address
            print(f"  node {daemon.node_id:x} on {host}:{port}")
        for record in corpus.records:
            client.insert_record(record)
        print(f"published {len(corpus.records)} records over the wire")

        entry_classes = client.scheme.entry_classes()
        rng = random.Random(args.seed)
        found = 0
        interactions = 0
        for _ in range(args.lookups):
            record = rng.choice(corpus.records)
            keyset = rng.choice(entry_classes)
            query = FieldQuery.msd_of(record).restrict(sorted(keyset))
            trace = client.search(query, record)
            found += trace.found
            interactions += trace.interactions
        client.close()

    print(
        f"lookups: {found}/{args.lookups} found, "
        f"{interactions / max(1, args.lookups):.2f} exchanges/lookup"
    )
    print(
        "wire traffic: "
        f"{counters.rpc_requests} requests, "
        f"{counters.rpc_tcp_frames} TCP frames, "
        f"{counters.rpc_timeouts} timeouts, "
        f"{counters.rpc_bytes_sent} B sent, "
        f"{counters.rpc_bytes_received} B received"
    )
    if args.trace_out:
        events = tracer.write_jsonl(args.trace_out)
        print(f"trace: {events} events -> {args.trace_out}")
        print(summarize_file(args.trace_out))
    return 0 if found == args.lookups else 1


if __name__ == "__main__":
    sys.exit(main())
