"""The callback exchange core of ``AsyncioTransport``, and its drivers.

Four contracts, each against real loopback sockets:

- the deadline (one request frame, one ``timeout``, late and unknown
  replies dropped);
- a failure on the loop thread never strands a blocked caller;
- a blocking lookup crosses threads once (counters, not timings);
- the wire's drivers agree: ``ClusterClient.search``, the engine's
  ``start_async`` posted on the loop, and the sequential
  ``LookupEngine.search`` walk the same chains on fresh clusters.

Every wait is bounded, so a hang fails instead of stalling tier 1.
"""

import asyncio
import concurrent.futures
import select
import socket
import threading
import time

import pytest

from repro.core.engine import LookupError_
from repro.core.query import FieldQuery
from repro.core.service import IndexService
from repro.net.message import Message, MessageKind
from repro.net.transport import DeliveryError, TransportError
from repro.perf import snapshot
from repro.rpc.cluster import LocalCluster
from repro.rpc.codec import (
    FRAME_RESPONSE,
    StreamUnframer,
    decode_frame,
    encode_frame,
    encode_message,
    encode_stream,
)
from repro.rpc.transport import AsyncioTransport
from repro.workload.corpus import CorpusConfig, SyntheticCorpus

WAIT_S = 10.0
TIMEOUT_MS = 40.0


@pytest.fixture
def loop():
    event_loop = asyncio.new_event_loop()
    thread = threading.Thread(target=event_loop.run_forever, daemon=True)
    thread.start()
    yield event_loop
    event_loop.call_soon_threadsafe(event_loop.stop)
    thread.join(timeout=5)
    event_loop.close()


def run(loop, coroutine):
    return asyncio.run_coroutine_threadsafe(coroutine, loop).result(WAIT_S)


@pytest.fixture
def client(loop):
    transport = AsyncioTransport(request_timeout_ms=TIMEOUT_MS)
    run(loop, transport.start())
    yield transport
    run(loop, transport.close())


def in_thread(action):
    """Start a blocking ``action`` on a daemon thread; returns its join.

    The join fails the test if the action outlives WAIT_S (a stranded
    caller hangs its own daemon thread, not the suite), and otherwise
    returns what the action returned or raises what it raised.
    """
    outcome = []

    def work():
        try:
            outcome.append((action(), None))
        except BaseException as error:  # handed to the joiner below
            outcome.append((None, error))

    thread = threading.Thread(target=work, daemon=True)
    thread.start()

    def join():
        thread.join(timeout=WAIT_S)
        assert not thread.is_alive(), "the blocked caller was stranded"
        value, error = outcome[0]
        if error is not None:
            raise error
        return value

    return join


def bounded(action):
    """Run a blocking ``action`` off-thread; fail if it outlives WAIT_S."""
    return in_thread(action)()


def request_to(name, payload=("hello",)):
    return Message(
        kind=MessageKind.QUERY_REQUEST,
        source="user:0",
        destination=name,
        payload=payload,
    )


def echo(message):
    return message.reply(MessageKind.QUERY_RESPONSE, message.payload)


class SilentPeer:
    """A TCP peer that accepts connections and never answers by itself.

    Every frame arriving is recorded; :meth:`reply` writes a well-formed
    RESPONSE under any request id down the latest connection.
    """

    def __init__(self):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = self.listener.getsockname()[:2]
        self.frames = []
        self.connections = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._pump, daemon=True)
        self._thread.start()

    def _pump(self):
        unframers = {}
        while not self._stop.is_set():
            ready, _, _ = select.select([self.listener, *unframers], [], [], 0.05)
            for sock in ready:
                if sock is self.listener:
                    connection, _ = sock.accept()
                    self.connections.append(connection)
                    unframers[connection] = StreamUnframer()
                    continue
                data = sock.recv(65536)
                if not data:
                    del unframers[sock]
                    continue
                self.frames.extend(bytes(f) for f in unframers[sock].feed(data))

    def reply(self, request_id, payload=("late",)):
        body = encode_message(
            Message(
                kind=MessageKind.QUERY_RESPONSE,
                source="node:1",
                destination="user:0",
                payload=payload,
            )
        )
        frame = encode_stream(encode_frame(FRAME_RESPONSE, request_id, body))
        self.connections[-1].sendall(frame)
        return len(frame)

    def close(self):
        self._stop.set()
        self._thread.join(timeout=2)
        for connection in self.connections:
            connection.close()
        self.listener.close()


@pytest.fixture
def peer():
    silent = SilentPeer()
    yield silent
    silent.close()


class TestDeadline:
    def test_one_deadline_one_timeout_late_replies_dropped(
        self, client, peer
    ):
        client.add_route("node:1", peer.address)
        before = snapshot()
        started = time.monotonic()
        with pytest.raises(DeliveryError) as raised:
            bounded(lambda: client.send(request_to("node:1")))
        waited_s = time.monotonic() - started
        after = snapshot()
        assert raised.value.reason == DeliveryError.TIMEOUT
        assert raised.value.destination == "node:1"
        assert waited_s >= TIMEOUT_MS / 1000.0 * 0.95  # timers fire late only
        # One request, one frame on the wire, one timeout: nothing re-sent.
        assert len(peer.frames) == 1
        assert after["rpc_requests"] == before["rpc_requests"] + 1
        assert after["rpc_timeouts"] == before["rpc_timeouts"] + 1
        assert after["rpc_retries"] == before["rpc_retries"]
        assert not client._pending
        # The reply arrives after the deadline, and one arrives for an id
        # nobody asked under: both are read and dropped without a trace.
        _, request_id, _ = decode_frame(peer.frames[0])
        sent = peer.reply(request_id) + peer.reply(request_id + 1000)
        deadline = time.monotonic() + WAIT_S
        while (
            snapshot()["rpc_bytes_received"] < after["rpc_bytes_received"] + sent
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        settled = snapshot()
        assert settled["rpc_bytes_received"] == after["rpc_bytes_received"] + sent
        assert settled["rpc_responses"] == after["rpc_responses"]
        assert settled["rpc_codec_errors"] == after["rpc_codec_errors"]
        # ... and the transport still works.
        client.register("node:local", echo)
        assert bounded(lambda: client.send(request_to("node:local"))) is not None


class TestNobodyIsStranded:
    def test_close_fails_exchanges_in_flight_with_delivery_errors(
        self, loop, peer
    ):
        transport = AsyncioTransport(request_timeout_ms=200.0)
        run(loop, transport.start())
        transport.add_route("node:1", peer.address)
        awaited = asyncio.run_coroutine_threadsafe(
            transport.request(request_to("node:1")), loop
        )
        outcomes = []
        loop.call_soon_threadsafe(
            transport.send_async,
            request_to("node:1"),
            outcomes.append,
            outcomes.append,
        )
        sent = in_thread(lambda: transport.send(request_to("node:1")))
        deadline = time.monotonic() + WAIT_S
        while len(peer.frames) < 3 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert len(transport._pending) == 3
        before = snapshot()
        run(loop, transport.close())
        for join in (lambda: awaited.result(timeout=WAIT_S), sent):
            with pytest.raises(DeliveryError) as raised:
                join()
            assert raised.value.reason == DeliveryError.TIMEOUT
        assert len(outcomes) == 1 and isinstance(outcomes[0], DeliveryError)
        assert not transport._pending
        # The deadline timers died with their exchanges.
        time.sleep(0.25)
        assert snapshot()["rpc_timeouts"] == before["rpc_timeouts"]

    @pytest.fixture
    def wired(self):
        corpus = SyntheticCorpus(
            CorpusConfig(num_articles=6, num_authors=3, seed=7)
        )
        with LocalCluster(3, cache="single") as cluster:
            client = cluster.client()
            for record in corpus.records:
                client.insert_record(record)
            yield client, corpus.records
            client.close()

    def test_a_query_that_does_not_cover_its_target(self, wired):
        client, records = wired
        query = FieldQuery.msd_of(records[0]).restrict(["author"])
        stranger = next(
            r for r in records if r["author"] != records[0]["author"]
        )
        with pytest.raises(LookupError_):
            bounded(lambda: client.search(query, stranger))
        assert bounded(lambda: client.search(query, records[0])).found

    def test_an_unroutable_name(self, wired):
        client, records = wired
        for node_id in client.members:
            client.transport.remove_route(IndexService.endpoint_name(node_id))
        query = FieldQuery.msd_of(records[0]).restrict(["author"])
        with pytest.raises(TransportError, match="no route"):
            bounded(lambda: client.search(query, records[0]))

    def test_a_continuation_that_raises(self, wired, monkeypatch):
        client, records = wired
        query = FieldQuery.msd_of(records[0]).restrict(["author"])

        def boom(*args):
            raise RuntimeError("boom in a continuation")

        # Raised while the service digests the first reply, i.e. inside
        # the continuation the transport runs from its stream callback.
        monkeypatch.setattr(client.service, "_parse_answer", boom)
        with pytest.raises(RuntimeError, match="boom in a continuation"):
            bounded(lambda: client.search(query, records[0]))
        monkeypatch.undo()
        assert bounded(lambda: client.search(query, records[0])).found


class TestCrossingsAndTasks:
    def test_n_blocking_searches_cost_n_crossings(self):
        corpus = SyntheticCorpus(
            CorpusConfig(num_articles=8, num_authors=3, seed=11)
        )
        with LocalCluster(3, cache="single") as cluster:
            client = cluster.client()
            for record in corpus.records:
                client.insert_record(record)
            before = snapshot()
            interactions = 0
            for record in corpus.records:
                query = FieldQuery.msd_of(record).restrict(["author"])
                trace = bounded(lambda: client.search(query, record))
                assert trace.found
                interactions += trace.interactions
            after = snapshot()
            client.close()
        searches = len(corpus.records)
        assert interactions > searches
        assert (
            after["rpc_thread_crossings"]
            == before["rpc_thread_crossings"] + searches
        )
        assert after["rpc_requests"] >= before["rpc_requests"] + interactions


def _trace_facts(trace):
    return (
        trace.found,
        trace.interactions,
        trace.visited,
        trace.result_msd,
        trace.cache_hit,
        trace.errors,
        trace.generalized,
    )


def _script(corpus):
    """A query script with repeats, so shortcuts seed and then hit."""
    keysets = (["author"], ["title"], ["conf", "year"], ["author", "title"])
    return [
        (FieldQuery.msd_of(record).restrict(keysets[(i + j) % 4]), record)
        for j in range(2)
        for i, record in enumerate(corpus.records)
    ]


def _via_search(client, query, record):
    return client.search(query, record)


def _via_start_async(client, query, record):
    done = concurrent.futures.Future()
    client._loop.call_soon_threadsafe(
        lambda: client.engine.start_async(
            query, record, client.transport, done.set_result
        )
    )
    return done.result(timeout=WAIT_S)


def _via_sequential_engine(client, query, record):
    return client.engine.search(query, record)


@pytest.mark.parametrize("signed", [False, True], ids=["unsigned", "signed"])
def test_wire_drivers_walk_identical_chains(signed):
    corpus = SyntheticCorpus(CorpusConfig(num_articles=10, num_authors=4, seed=5))
    runs = []
    for driver in (_via_search, _via_start_async, _via_sequential_engine):
        with LocalCluster(3, cache="single", signed=signed) as cluster:
            client = cluster.client()
            for record in corpus.records:
                client.insert_record(record)
            runs.append(
                [
                    _trace_facts(bounded(lambda: driver(client, query, record)))
                    for query, record in _script(corpus)
                ]
            )
            client.close()
    assert runs[0] == runs[1] == runs[2]
    assert all(facts[0] for facts in runs[0])
    assert any(facts[4] for facts in runs[0]), "the script never hit a cache"
