"""What the wire does with requests and replies it did not expect.

- A request whose payload has the wrong shape for its verb is answered
  with a ``bad-request`` error, never raised out of the socket callback
  (an insert batch that is empty, ragged or names an unknown store is
  refused before its first write):
  the sender would wait out its deadline, and asyncio would close the
  connection under every other exchange on it.
- A reply the codec refuses (more payload entries than it carries) is
  answered with a ``codec`` error for that exchange alone, and the
  connection keeps serving the others on it.
- A discovery or join answered with anything but ``members`` is a
  :class:`TransportError`, not an ``AssertionError``.
- A restarted daemon's new control name is pinned to its roster key.
- A lookup whose only replica is dead waits out real backoff timers
  between its retries.
"""

import asyncio
import threading
import time

import pytest

from repro.core.engine import LookupEngine
from repro.core.query import FieldQuery
from repro.net.message import Message, MessageKind
from repro.net.transport import DeliveryError, TransportError
from repro.rpc.cluster import ClusterClient, LocalCluster
from repro.rpc.daemon import NodeDaemon
from repro.rpc.transport import AsyncioTransport, daemon_endpoint_name
from repro.workload.corpus import CorpusConfig, SyntheticCorpus

TIMEOUT_MS = 500.0

MALFORMED = {
    "join-without-arguments": (MessageKind.CONTROL, ("join",)),
    "pull-of-a-non-hex-id": (MessageKind.CONTROL, ("pull", "zz")),
    "pull-from-a-ragged-cursor": (MessageKind.CONTROL, ("pull", "1", "i", "k")),
    "pull-from-an-unknown-store": (
        MessageKind.CONTROL, ("pull", "1", "x", "k", "v"),
    ),
    "index-insert-of-one-field": (MessageKind.INDEX_INSERT, ("k",)),
    "file-triple-without-a-value": (MessageKind.INDEX_INSERT, ("f", "k")),
    "batch-of-a-ragged-length": (
        MessageKind.INDEX_INSERT, ("i", "k", "v", "f", "k2"),
    ),
    "batch-naming-an-unknown-store": (
        MessageKind.INDEX_INSERT, ("i", "k", "v", "x", "k2", "v2"),
    ),
    "empty-insert-batch": (MessageKind.INDEX_INSERT, ()),
}


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
    return asyncio.run_coroutine_threadsafe(coroutine, loop).result(timeout=10)


@pytest.fixture
def daemon(loop):
    node = NodeDaemon()
    run(loop, node.start())
    yield node
    loop.call_soon_threadsafe(node.stop)
    run(loop, node.serve())


@pytest.fixture
def client(loop):
    transports = []

    def make():
        transport = AsyncioTransport(request_timeout_ms=TIMEOUT_MS)
        run(loop, transport.start())
        transports.append(transport)
        return transport

    yield make
    for transport in transports:
        run(loop, transport.close())


def to_control(daemon, kind, payload):
    return Message(
        kind=kind, source="user:0", destination=daemon.control_name, payload=payload
    )


class TestMalformedRequests:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_answer_in_time(self, daemon, client, case):
        sender = client()
        started = time.monotonic()
        with pytest.raises(DeliveryError) as excinfo:
            sender.send(to_control(daemon, *MALFORMED[case]))
        assert excinfo.value.reason == "bad-request"
        assert time.monotonic() - started < TIMEOUT_MS / 1000.0

    @pytest.mark.parametrize(
        "case",
        sorted(c for c in MALFORMED if MALFORMED[c][0] is MessageKind.INDEX_INSERT),
    )
    def test_a_refused_batch_applies_nothing(self, daemon, client, case):
        with pytest.raises(DeliveryError):
            client().send(to_control(daemon, *MALFORMED[case]))
        assert daemon.index_store.entries_on_node(daemon.node_id) == 0
        assert daemon.file_store.entries_on_node(daemon.node_id) == 0

    def test_a_well_formed_batch_is_applied_in_order(self, daemon, client):
        batch = ("i", "k", "v2", "f", "m", "file", "i", "k", "v1")
        insert = to_control(daemon, MessageKind.INDEX_INSERT, batch)
        assert client().send(insert) is None
        assert daemon.index_store.values_at(daemon.node_id, "k") == ("v2", "v1")
        assert daemon.file_store.values_at(daemon.node_id, "m") == ("file",)

    def test_tcp_connection_keeps_serving_beside_a_bad_request(self, daemon, client):
        sender = client()
        results = sender.run_blocking(
            lambda done: sender._fan_out(
                [
                    to_control(daemon, MessageKind.CONTROL, ("join",)),
                    to_control(daemon, MessageKind.CONTROL, ("ping",)),
                ],
                done.set_result,
                done.set_exception,
            )
        )
        bad, ping = results
        assert isinstance(bad, DeliveryError) and bad.reason == "bad-request"
        assert isinstance(ping, Message) and ping.payload[0] == "pong"


def test_an_oversized_reply_fails_its_exchange_alone(loop, client):
    """An endpoint answering 70,000 entries (the codec carries 65,535)
    gets its sender a ``codec`` error; a ping multiplexed on the same
    connection is still answered."""
    server = AsyncioTransport()
    address = run(loop, server.start("127.0.0.1", 0))
    control = daemon_endpoint_name(*address)
    server.register(
        control, lambda message: message.reply(MessageKind.CONTROL, ("pong",))
    )
    server.register(
        "node:big",
        lambda message: message.reply(MessageKind.CONTROL, ("x",) * 70_000),
    )
    try:
        sender = client()
        sender.add_route("node:big", address)
        requests = [
            Message(MessageKind.CONTROL, "user:0", name, ("ping",))
            for name in ("node:big", control)
        ]
        big, ping = sender.run_blocking(
            lambda done: sender._fan_out(
                requests, done.set_result, done.set_exception
            )
        )
        assert isinstance(big, DeliveryError) and big.reason == "codec"
        assert isinstance(ping, Message) and ping.payload == ("pong",)
        assert sender.send(requests[1]).payload == ("pong",)
    finally:
        run(loop, server.close())


class TestWrongMembershipAnswer:
    @pytest.fixture
    def impostor(self, loop):
        """A control endpoint that answers ``members`` with ``pong``."""
        transport = AsyncioTransport()
        address = run(loop, transport.start("127.0.0.1", 0))
        transport.register(
            daemon_endpoint_name(*address),
            lambda message: message.reply(MessageKind.CONTROL, ("pong", "1")),
        )
        yield address
        run(loop, transport.close())

    def test_discovery_raises_transport_error(self, loop, impostor):
        with pytest.raises(TransportError, match="members"):
            ClusterClient(loop, impostor, discover_timeout_ms=500.0)

    def test_join_raises_transport_error(self, loop, impostor):
        node = NodeDaemon()
        try:
            with pytest.raises(TransportError, match="members"):
                run(loop, node.start(impostor))
        finally:
            run(loop, node.transport.close())


def test_restarted_daemon_is_pinned_to_its_roster_key(tmp_path):
    with LocalCluster(3, data_root=str(tmp_path), signed=True) as cluster:
        client = cluster.client()
        try:
            cluster.kill_node(1)
            restarted = cluster.restart_node(1)
            client.refresh_members(cluster.daemons[0].address)
            control = daemon_endpoint_name(*restarted.address)
            assert client.transport.pinned_key(control) == restarted.identity.public_key
            assert client.ping(restarted.node_id)
        finally:
            client.close()


def test_retry_backoff_waits_on_real_timers():
    """The file's only replica is dead: the lookup retries it
    ``MAX_RETRIES`` times, each after a backoff ``AsyncioTransport.post``
    lets elapse on the loop (the dead port refuses each dial at once)."""
    record = SyntheticCorpus(CorpusConfig(num_articles=4, num_authors=2, seed=3)).records[0]
    with LocalCluster(3) as cluster:
        client = cluster.client()
        try:
            client.insert_record(record)
            msd = FieldQuery.msd_of(record)
            (owner,) = client.file_store.responsible_nodes(msd.key())
            cluster.kill_node(cluster.node_ids.index(owner))
            started = time.monotonic()
            trace = client.search(msd, record)
            waited_ms = (time.monotonic() - started) * 1000.0
        finally:
            client.close()
    assert trace.gave_up and not trace.found
    assert trace.retries == LookupEngine.MAX_RETRIES
    assert waited_ms >= sum(LookupEngine.RETRY_BACKOFF) * LookupEngine.BACKOFF_UNIT_MS
