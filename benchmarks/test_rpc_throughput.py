"""Wire-stack throughput guard: loopback lookups/sec and insert batching.

Measures what one blocking client can push through a small loopback
cluster -- sequential covering-chain lookups per second, and record
publications per second with and without the pipelined (batched
replica fan-out + async shortcut) path -- and asserts two guards:

- a conservative **floor** on single-worker lookup throughput, so a
  regression in the rpc hot path (codec, socket loop, TCP pooling)
  fails CI rather than quietly shifting the capacity knee;
- pipelined inserts must not be slower than lockstep inserts (they
  send the same messages as one concurrent round).

A publish is one insert batch per destination daemon: 2 messages per
insert on this 3-daemon, replication-1 cluster (7 when every mapping
was its own frame).  On a 2-vCPU box, pipelined inserts run about
1,390/s against 1,070-1,170/s lockstep (1.2-1.3x); with single-entry
frames they ran 910-1,050/s against 380-590/s.

Raw numbers land in ``benchmarks/results/rpc_throughput.json`` for the
capacity narrative in EXPERIMENTS.md.  The floor is intentionally far
below the locally measured rate (hundreds/sec): CI boxes are slow and
shared, and this guard is about catching order-of-magnitude drops.
"""

import json
import pathlib
import time

import pytest

from repro.core.query import FieldQuery
from repro.net.message import Message, MessageKind
from repro.rpc.cluster import LocalCluster
from repro.rpc.codec import (
    FRAME_REQUEST,
    StreamUnframer,
    decode_frame,
    decode_frame_signed,
    encode_frame,
    encode_message,
    encode_stream,
)
from repro.workload.corpus import CorpusConfig, SyntheticCorpus

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Hard floor on sequential loopback lookups/sec (locally ~300+/s).
LOOKUP_FLOOR_PER_S = 25.0

#: Lookups in the timed section (a few seconds at the floor).
N_LOOKUPS = 150
N_INSERTS = 60

#: Hard floor on zero-copy stream unframing (locally ~1M+ frames/s).
UNFRAME_FLOOR_PER_S = 50_000.0

#: Frames in the unframer's timed section.
N_FRAMES = 20_000

#: Ceiling on decode_frame_signed's cost over decode_frame for an
#: UNSIGNED frame -- the "signing off costs nothing" guard.  The signed
#: entry point does the same structural work plus one version compare,
#: so parity with a generous noise band is the contract.
UNSIGNED_DECODE_OVERHEAD_MAX = 1.5


@pytest.fixture(scope="module")
def cluster():
    with LocalCluster(3, scheme="simple", cache="multi") as live:
        yield live


@pytest.fixture(scope="module")
def corpus():
    return SyntheticCorpus(CorpusConfig(num_articles=160, seed=77))


def timed(fn, count):
    started = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - started
    return count / elapsed, elapsed


class TestRpcThroughput:
    def test_lookup_floor_and_insert_batching(self, cluster, corpus):
        client = cluster.client()
        try:
            seeded = corpus.records[:20]
            for record in seeded:
                client.insert_record(record)

            def run_lookups():
                for index in range(N_LOOKUPS):
                    record = seeded[index % len(seeded)]
                    query = FieldQuery.msd_of(record).restrict(["author"])
                    trace = client.search(query, record)
                    assert trace.found

            lookups_per_s, lookup_elapsed = timed(run_lookups, N_LOOKUPS)

            pipelined_pool = corpus.records[20 : 20 + N_INSERTS]
            lockstep_pool = corpus.records[
                20 + N_INSERTS : 20 + 2 * N_INSERTS
            ]

            def run_pipelined_inserts():
                for record in pipelined_pool:
                    client.insert_record(record)

            def run_lockstep_inserts():
                # The baseline: one blocking round trip per message of
                # the same fan-out insert_record batches.
                for record in lockstep_pool:
                    for message in client.insert_messages(record):
                        client.transport.send(message)

            lockstep_per_s, _ = timed(run_lockstep_inserts, N_INSERTS)
            pipelined_per_s, _ = timed(run_pipelined_inserts, N_INSERTS)

            messages_per_insert = len(
                client.insert_messages(corpus.records[-1])
            )
            results = {
                "nodes": cluster.num_nodes,
                "lookups_per_s": round(lookups_per_s, 1),
                "lookup_elapsed_s": round(lookup_elapsed, 3),
                "n_lookups": N_LOOKUPS,
                "inserts_per_s_pipelined": round(pipelined_per_s, 1),
                "inserts_per_s_lockstep": round(lockstep_per_s, 1),
                "insert_speedup": round(pipelined_per_s / lockstep_per_s, 2),
                "messages_per_insert": messages_per_insert,
                "floor_per_s": LOOKUP_FLOOR_PER_S,
            }
            RESULTS_DIR.mkdir(exist_ok=True)
            with open(RESULTS_DIR / "rpc_throughput.json", "w") as handle:
                json.dump(results, handle, indent=2)
                handle.write("\n")

            assert lookups_per_s >= LOOKUP_FLOOR_PER_S, (
                f"lookup throughput regressed: {lookups_per_s:.1f}/s "
                f"< floor {LOOKUP_FLOOR_PER_S}/s"
            )
            # Batching several messages into one concurrent round must
            # not lose to strict request/response lockstep.  Allow a
            # small noise band rather than asserting a specific speedup.
            assert pipelined_per_s >= 0.9 * lockstep_per_s, results
        finally:
            client.close()


def lookup_frame() -> bytes:
    message = Message(
        kind=MessageKind.QUERY_REQUEST,
        source="user:bench",
        destination="node:42",
        payload=("author=knuth&title=taocp",),
    )
    return encode_frame(FRAME_REQUEST, 7, encode_message(message))


class TestCodecFloors:
    def test_unframer_zero_copy_floor(self):
        """The TCP reassembly hot path: whole frames per chunk must
        come back as views, fast, and byte-correct."""
        frame = lookup_frame()
        chunk = encode_stream(frame) * 50  # 50 frames per feed() call
        unframer = StreamUnframer()
        produced = 0
        started = time.perf_counter()
        while produced < N_FRAMES:
            frames = unframer.feed(chunk)
            produced += len(frames)
        elapsed = time.perf_counter() - started
        frames_per_s = produced / elapsed
        assert isinstance(frames, list) and len(frames) == 50
        assert isinstance(frames[0], memoryview), "zero-copy path lost"
        assert bytes(frames[0]) == frame
        assert unframer.pending_bytes == 0

        results = {
            "frames_per_s": round(frames_per_s),
            "n_frames": produced,
            "frame_bytes": len(frame),
            "floor_per_s": UNFRAME_FLOOR_PER_S,
        }
        RESULTS_DIR.mkdir(exist_ok=True)
        with open(RESULTS_DIR / "stream_unframer.json", "w") as handle:
            json.dump(results, handle, indent=2)
            handle.write("\n")
        assert frames_per_s >= UNFRAME_FLOOR_PER_S, results

    def test_unsigned_decode_pays_no_signing_tax(self):
        """decode_frame_signed on a v1 frame must track decode_frame:
        deployments that never sign keep their old hot path."""
        frame = lookup_frame()
        rounds = 30_000

        def best_of(fn, repeats=5):
            best = float("inf")
            for _ in range(repeats):
                started = time.perf_counter()
                for _ in range(rounds):
                    fn(frame)
                best = min(best, time.perf_counter() - started)
            return best

        plain = best_of(decode_frame)
        signed_entry = best_of(decode_frame_signed)
        ratio = signed_entry / plain
        results = {
            "decode_frame_s": round(plain, 4),
            "decode_frame_signed_s": round(signed_entry, 4),
            "ratio": round(ratio, 3),
            "ceiling": UNSIGNED_DECODE_OVERHEAD_MAX,
        }
        RESULTS_DIR.mkdir(exist_ok=True)
        with open(RESULTS_DIR / "unsigned_decode_overhead.json", "w") as handle:
            json.dump(results, handle, indent=2)
            handle.write("\n")
        assert ratio <= UNSIGNED_DECODE_OVERHEAD_MAX, results
