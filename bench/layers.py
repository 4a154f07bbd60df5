"""Layer kernels: ``python3 bench/run.py --layers``.

Direct calls into one layer's public functions on fixed inputs, no
workload around them: the cost of a layer by itself, to set beside its
self time in a traced run.  Each kernel is timed five times and the best
is kept (as ``benchmarks/test_rpc_throughput.py`` does); a kernel takes
at most about two seconds.  Rates are calls per second of one thread.
"""

from __future__ import annotations

import asyncio
import os
import random
import shutil
import tempfile
import threading
import time
from typing import Callable

_clock = time.perf_counter

REPEATS = 5


def best_rate(fn: Callable[[], int]) -> float:
    """Operations per second of ``fn`` (which returns how many it did)."""
    best = 0.0
    for _ in range(REPEATS):
        started = _clock()
        count = fn()
        best = max(best, count / (_clock() - started))
    return best


def _corpus(articles: int = 2_000):
    from repro.workload.corpus import CorpusConfig, SyntheticCorpus

    return SyntheticCorpus(CorpusConfig(num_articles=articles, seed=2003))


def _query_keys(corpus, count: int) -> list[str]:
    from repro.workload.querygen import QueryGenerator

    feed = QueryGenerator(corpus, seed=42).generate(count)
    return [item.query.key() for item in feed]


# -- xmlq / core.query / core.predicates ---------------------------------------------


def query_algebra(results: dict) -> None:
    from repro.core.fields import ARTICLE_SCHEMA
    from repro.core.predicates import Exact, Prefix, Range, Wildcard
    from repro.core.query import FieldQuery
    from repro.xmlq.xpparser import parse_xpath

    corpus = _corpus()
    keys = sorted(set(_query_keys(corpus, 3_000)))

    def parse_all() -> int:
        for key in keys:
            parse_xpath(key)
        return len(keys)

    results["xmlq.parse_per_s"] = (best_rate(parse_all), "1/s")

    def parse_cold() -> int:
        # Drop the memo so every text takes the lexer/parser path.
        ARTICLE_SCHEMA.__dict__.pop(FieldQuery._PARSE_CACHE_ATTR, None)
        for key in keys:
            FieldQuery.parse(ARTICLE_SCHEMA, key)
        return len(keys)

    results["core.query.parse_cold_per_s"] = (best_rate(parse_cold), "1/s")

    queries = [FieldQuery.parse(ARTICLE_SCHEMA, key) for key in keys[:200]]
    records = corpus.records[:200]

    def covers_record() -> int:
        for query in queries:
            for record in records:
                query.covers_record(record)
        return len(queries) * len(records)

    results["core.query.covers_record_per_s"] = (best_rate(covers_record), "1/s")

    predicates = [
        Exact("Alonso"), Prefix("Al"), Wildcard("Al*o"), Range(1995, 2000),
        Exact("1997"), Prefix("Alo"), Wildcard("A*so"), Range(1996, 1998),
    ]

    def covers() -> int:
        done = 0
        for _ in range(400):
            for outer in predicates:
                for inner in predicates:
                    outer.covers(inner)
                    done += 1
        return done

    results["core.predicates.covers_per_s"] = (best_rate(covers), "1/s")


# -- dht -----------------------------------------------------------------------------


def dht_routing(results: dict) -> None:
    from repro.dht.can import CANNetwork
    from repro.dht.chord import ChordNetwork
    from repro.dht.idspace import hash_key
    from repro.dht.kademlia import KademliaNetwork
    from repro.dht.pastry import PastryNetwork
    from repro.dht.ring import IdealRing

    node_ids = sorted({hash_key(f"node-{i}", 64) for i in range(200)})
    keys = [hash_key(f"probe-{i}", 64) for i in range(2_000)]
    for name, cls in (
        ("ring", IdealRing),
        ("chord", ChordNetwork),
        ("kademlia", KademliaNetwork),
        ("pastry", PastryNetwork),
        ("can", CANNetwork),
    ):
        protocol = cls.bulk_build(node_ids, bits=64)
        hops = [0]

        def lookups() -> int:
            hops[0] = sum(protocol.lookup(key).hops for key in keys)
            return len(keys)

        results[f"dht.{name}.lookups_per_s"] = (best_rate(lookups), "1/s")
        results[f"dht.{name}.mean_hops"] = (hops[0] / len(keys), "count")


# -- storage -------------------------------------------------------------------------


def storage_store(results: dict) -> None:
    from repro.dht.idspace import hash_key
    from repro.dht.ring import IdealRing
    from repro.storage.store import DHTStorage

    node_ids = sorted({hash_key(f"node-{i}", 64) for i in range(500)})
    pairs = [(f"key-{i}", f"value-{i}") for i in range(5_000)]

    def fresh() -> DHTStorage:
        return DHTStorage(IdealRing.bulk_build(node_ids, bits=64), replication=3)

    def puts() -> int:
        store = fresh()
        for key, value in pairs:
            store.put(key, value)
        return len(pairs)

    results["storage.store.put_per_s"] = (best_rate(puts), "1/s")

    store = fresh()
    for key, value in pairs:
        store.put(key, value)

    def gets() -> int:
        for key, _ in pairs:
            store.get(key)
        return len(pairs)

    results["storage.store.get_per_s"] = (best_rate(gets), "1/s")

    # One leave + join + repair at 500 nodes / replication 3, as a churn
    # event of the simulator does it.
    best = float("inf")
    for attempt in range(REPEATS):
        victim = store.protocol.node_ids[37 + attempt]
        joiner = hash_key(f"joiner-{attempt}", 64)
        started = _clock()
        store.protocol.remove_node(victim)
        store.drop_node(victim)
        store.protocol.add_node(joiner)
        store.repair()
        best = min(best, _clock() - started)
    results["storage.store.repair_ms"] = (best * 1000.0, "ms")


def storage_durable(results: dict, scratch: str) -> None:
    from repro.storage.durable import (
        OP_PUT,
        FsyncPolicy,
        WriteAheadLog,
        replay_wal,
    )

    fields = ("index", "/article[author[last='Alonso']]", "/article[title='T']")
    sizes = {"never": 20_000, "interval": 20_000, "always": 300}
    serial = [0]
    for policy, count in sizes.items():

        def appends() -> int:
            serial[0] += 1
            log = WriteAheadLog(
                os.path.join(scratch, f"{policy}-{serial[0]}.wal"),
                FsyncPolicy.parse(policy),
            )
            try:
                for _ in range(count):
                    log.append(OP_PUT, fields)
            finally:
                log.close()
            return count

        results[f"storage.durable.appends_per_s.{policy}"] = (best_rate(appends), "1/s")

    path = os.path.join(scratch, f"never-{serial[0] - 2 * REPEATS}.wal")

    def replay() -> int:
        ops, _ = replay_wal(path, repair=False)
        return len(ops)

    results["storage.durable.replay_records_per_s"] = (best_rate(replay), "1/s")


# -- net / sim.kernel / analysis.stats -------------------------------------------------


def net_and_kernel(results: dict) -> None:
    from repro.analysis.stats import ExactQuantiles, LogBucketQuantiles
    from repro.net.faults import FaultPlan, FaultyTransport
    from repro.net.message import Message, MessageKind
    from repro.net.transport import DeliveryError, SimulatedTransport
    from repro.sim.kernel import EventKernel

    request = Message(MessageKind.QUERY_REQUEST, "user:0", "node:1", ("/article",))

    def echo(message: Message) -> Message:
        return message.reply(MessageKind.QUERY_RESPONSE, ("/article[title='T']",))

    def transport_rate(transport) -> float:
        transport.register("node:1", echo)
        transport.register("user:0", lambda message: None)

        def sends() -> int:
            for _ in range(20_000):
                try:
                    transport.send(request)
                except DeliveryError:
                    pass
            return 20_000

        return best_rate(sends)

    results["net.transport.sends_per_s"] = (transport_rate(SimulatedTransport()), "1/s")
    results["net.faults.sends_per_s.zero_plan"] = (
        transport_rate(FaultyTransport(SimulatedTransport(), FaultPlan())),
        "1/s",
    )
    results["net.faults.sends_per_s.drop_5pct"] = (
        transport_rate(
            FaultyTransport(SimulatedTransport(), FaultPlan(drop_probability=0.05, seed=7))
        ),
        "1/s",
    )

    delays = [random.Random(7).uniform(10.0, 100.0) for _ in range(50_000)]
    for scheduler in ("heap", "wheel"):

        def events() -> int:
            kernel = EventKernel(scheduler=scheduler)
            for delay in delays:
                kernel.post(delay, _noop)
            kernel.run()
            return kernel.events_run

        results[f"sim.kernel.events_per_s.{scheduler}"] = (best_rate(events), "1/s")

    samples = [random.Random(7).uniform(0.1, 900.0) for _ in range(100_000)]
    for name, cls in (("exact", ExactQuantiles), ("sketch", LogBucketQuantiles)):

        def adds() -> int:
            collector = cls()
            for value in samples:
                collector.add(value)
            collector.percentile(0.95)
            return len(samples)

        results[f"analysis.stats.adds_per_s.{name}"] = (best_rate(adds), "1/s")


def _noop() -> None:
    return None


# -- rpc.codec / sec -------------------------------------------------------------------


def codec_and_sec(results: dict) -> str:
    from repro.net.message import Message, MessageKind
    from repro.rpc.codec import (
        FRAME_REQUEST,
        StreamUnframer,
        decode_frame,
        decode_frame_signed,
        decode_message,
        encode_frame,
        encode_message,
        encode_stream,
        sign_frame,
    )
    from repro.sec import NodeIdentity, verify_signature

    # The smallest lookup frame: one single-field query, where the
    # per-message cost dominates the per-byte cost.
    message = Message(
        MessageKind.QUERY_REQUEST, "user:0", "node:1", ("/article[year='1997']",)
    )
    body = encode_message(message)
    frame = encode_frame(FRAME_REQUEST, 7, body)
    count = 20_000

    def encode() -> int:
        for _ in range(count):
            encode_frame(FRAME_REQUEST, 7, encode_message(message))
        return count

    def decode() -> int:
        for _ in range(count):
            decode_message(decode_frame(frame)[2])
        return count

    stream = encode_stream(frame) * 2_000

    def unframe() -> int:
        return len(StreamUnframer().feed(stream))

    results["rpc.codec.encode_per_s"] = (best_rate(encode), "1/s")
    results["rpc.codec.decode_per_s"] = (best_rate(decode), "1/s")
    results["rpc.codec.unframe_per_s"] = (best_rate(unframe), "1/s")

    identity = NodeIdentity("bench-layers")
    signed_body = encode_message(message, signed=True)
    signed_frame = sign_frame(FRAME_REQUEST, 7, signed_body, identity)
    signed_count = 2_000 if identity.backend == "cryptography" else 20

    def sign() -> int:
        for _ in range(signed_count):
            sign_frame(FRAME_REQUEST, 7, signed_body, identity)
        return signed_count

    def verify() -> int:
        for _ in range(signed_count):
            envelope = decode_frame_signed(signed_frame)[3]
            if not verify_signature(
                envelope.public_key, envelope.signed, envelope.signature
            ):
                raise RuntimeError("a frame signed here failed to verify")
        return signed_count

    results["rpc.codec.sign_frame_per_s"] = (best_rate(sign), "1/s")
    results["rpc.codec.verify_frame_per_s"] = (best_rate(verify), "1/s")

    data = b"x" * 64
    signature = identity.sign(data)

    def raw_sign() -> int:
        for _ in range(signed_count):
            identity.sign(data)
        return signed_count

    def raw_verify() -> int:
        for _ in range(signed_count):
            verify_signature(identity.public_key, data, signature)
        return signed_count

    results["sec.sign_per_s"] = (best_rate(raw_sign), "1/s")
    results["sec.verify_per_s"] = (best_rate(raw_verify), "1/s")
    return identity.backend


# -- rpc.transport ---------------------------------------------------------------------


def transport_echo(results: dict) -> None:
    """One loopback request/response on a trivial endpoint: bare forwarding."""
    from repro.net.message import Message, MessageKind
    from repro.rpc.transport import AsyncioTransport

    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, name="bench-echo", daemon=True)
    thread.start()

    def on_loop(coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, loop).result(timeout=30)

    def echo(message: Message) -> Message:
        return message.reply(MessageKind.QUERY_RESPONSE, message.payload)

    try:
        # udp_max_bytes=0 pushes every frame onto the (pooled) TCP path.
        for name, udp_max in (("udp", 1400), ("tcp", 0)):
            server = AsyncioTransport(udp_max_bytes=udp_max)
            client = AsyncioTransport(udp_max_bytes=udp_max)
            address = on_loop(server.start("127.0.0.1", 0))
            on_loop(client.start())
            try:
                server.register("echo", echo)
                client.add_route("echo", address)
                request = Message(
                    MessageKind.QUERY_REQUEST, "user:0", "echo", ("/article",)
                )
                for _ in range(100):
                    client.send(request)

                def round_trips() -> int:
                    for _ in range(1_000):
                        client.send(request)
                    return 1_000

                results[f"rpc.transport.echo_rtt_us.{name}"] = (
                    1_000_000.0 / best_rate(round_trips),
                    "us",
                )
            finally:
                on_loop(client.close())
                on_loop(server.close())
    finally:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10.0)
        loop.close()


# -- workload ----------------------------------------------------------------------------


def workload_generation(results: dict) -> None:
    from repro.workload.querygen import QueryGenerator

    corpus = _corpus(10_000)

    def queries() -> int:
        return sum(1 for _ in QueryGenerator(corpus, seed=42).generate(20_000))

    results["workload.queries_per_s"] = (best_rate(queries), "1/s")


def main() -> int:
    results: dict[str, tuple[float, str]] = {}
    scratch = tempfile.mkdtemp(
        prefix="layers-", dir=_ensure(os.path.join(os.path.dirname(__file__), "out"))
    )
    try:
        query_algebra(results)
        dht_routing(results)
        storage_store(results)
        storage_durable(results, scratch)
        net_and_kernel(results)
        backend = codec_and_sec(results)
        transport_echo(results)
        workload_generation(results)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"== layer kernels (best of {REPEATS}; sec backend: {backend}) ==")
    for name, (value, unit) in results.items():
        print(f"  {name:<44} {value:>16.2f} {unit}")
    return 0


def _ensure(directory: str) -> str:
    os.makedirs(directory, exist_ok=True)
    return directory
