"""The TCP channel (one connection per peer) and batched requests."""

import asyncio
import contextlib
import socket
import threading
import time

import pytest

from repro.net.message import Message, MessageKind
from repro.net.transport import DeliveryError, TransportError
from repro.perf import snapshot
from repro.rpc.cluster import LocalCluster
from repro.rpc.transport import AsyncioTransport
from repro.workload.corpus import CorpusConfig, SyntheticCorpus


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


def make_server(loop, **options):
    transport = AsyncioTransport(request_timeout_ms=300.0, **options)
    run(loop, transport.start("127.0.0.1", 0))
    return transport


def make_client(loop, **options):
    transport = AsyncioTransport(request_timeout_ms=300.0, **options)
    run(loop, transport.start())
    return transport


def echo_handler(message):
    return message.reply(MessageKind.QUERY_RESPONSE, message.payload)


def request_to(name, payload=("x" * 100,)):
    return Message(
        kind=MessageKind.QUERY_REQUEST,
        source="user:0",
        destination=name,
        payload=payload,
    )


def dead_address():
    """An address nothing will ever listen on."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    address = probe.getsockname()
    probe.close()
    return address


@contextlib.contextmanager
def tasks_created(loop):
    """Every ``asyncio.Task`` created on ``loop`` inside the block."""
    created = []

    def spy(spied_loop, coroutine, **kwargs):
        task = asyncio.Task(coroutine, loop=spied_loop, **kwargs)
        created.append(task)
        return task

    loop.call_soon_threadsafe(loop.set_task_factory, spy)
    try:
        yield created
    finally:
        loop.call_soon_threadsafe(loop.set_task_factory, None)


class TestConnectionReuse:
    def test_sequential_requests_share_one_connection(self, loop):
        server, client = make_server(loop), make_client(loop)
        try:
            server.register("node:1", echo_handler)
            client.add_route("node:1", server.listen_address)
            before = snapshot()
            for _ in range(5):
                response = client.send(request_to("node:1"))
                assert response is not None
            after = snapshot()
            assert after["rpc_tcp_connects"] == before["rpc_tcp_connects"] + 1
            assert after["rpc_tcp_reuses"] == before["rpc_tcp_reuses"] + 4
        finally:
            run(loop, client.close())
            run(loop, server.close())

    def test_a_tcp_exchange_over_an_open_connection_creates_no_task(self, loop):
        server, client = make_server(loop), make_client(loop)
        try:
            server.register("node:1", echo_handler)
            client.add_route("node:1", server.listen_address)
            assert client.send(request_to("node:1")) is not None  # dials
            before = snapshot()
            with tasks_created(loop) as created:
                for index in range(5):
                    payload = (f"{index}-" + "z" * 100,)
                    response = client.send(request_to("node:1", payload))
                    assert response.payload == payload
            after = snapshot()
            assert created == []
            assert after["rpc_tcp_frames"] == before["rpc_tcp_frames"] + 10
            assert after["rpc_tcp_reuses"] == before["rpc_tcp_reuses"] + 5
        finally:
            run(loop, client.close())
            run(loop, server.close())

    def test_stale_pooled_connection_retried_on_fresh_one(self, loop):
        server, client = make_server(loop), make_client(loop)
        try:
            server.register("node:1", echo_handler)
            client.add_route("node:1", server.listen_address)
            assert client.send(request_to("node:1")) is not None

            # The server drops the idle connection the client kept open.
            def drop_server_conns():
                for stream in list(server._streams.values()):
                    stream.transport.close()

            run(loop, asyncio.sleep(0))
            loop.call_soon_threadsafe(drop_server_conns)
            run(loop, asyncio.sleep(0.05))

            before = snapshot()
            payload = ("after-stale-" + "y" * 100,)
            response = client.send(request_to("node:1", payload))
            assert response is not None
            assert response.payload == payload
            after = snapshot()
            # The stale connection burned one fresh connect; no double retry.
            assert after["rpc_tcp_connects"] == before["rpc_tcp_connects"] + 1
        finally:
            run(loop, client.close())
            run(loop, server.close())

    def test_concurrent_exchanges_to_one_peer_open_one_connection(self, loop):
        server, client = make_server(loop), make_client(loop)
        try:
            server.register("node:1", echo_handler)
            client.add_route("node:1", server.listen_address)
            before = snapshot()
            messages = [request_to("node:1", (f"m{i}" + "x" * 100,)) for i in range(8)]
            results = client.send_many(messages)
            assert [r.payload for r in results] == [m.payload for m in messages]
            after = snapshot()
            assert after["rpc_tcp_connects"] == before["rpc_tcp_connects"] + 1
            assert after["rpc_tcp_frames"] == before["rpc_tcp_frames"] + 16
        finally:
            run(loop, client.close())
            run(loop, server.close())


class TestStreamFailures:
    def test_a_peer_that_hangs_up_mid_exchange_is_a_delivery_error(self, loop):
        async def hang_up(reader, writer):
            await reader.readexactly(4)
            writer.close()

        listener = run(loop, asyncio.start_server(hang_up, "127.0.0.1", 0))
        deadline_ms = 5000.0
        client = AsyncioTransport(request_timeout_ms=deadline_ms)
        run(loop, client.start())
        try:
            client.add_route("node:1", listener.sockets[0].getsockname()[:2])
            before = snapshot()
            started = time.monotonic()
            with pytest.raises(DeliveryError) as raised:
                client.send(request_to("node:1"))
            waited_ms = (time.monotonic() - started) * 1000.0
            after = snapshot()
            # The loss fails the exchange at once, as a departed peer: the
            # service fails over instead of waiting out the deadline.
            assert raised.value.reason == DeliveryError.UNREGISTERED
            assert raised.value.retry_elsewhere
            assert waited_ms < deadline_ms / 2
            assert after["rpc_tcp_connects"] == before["rpc_tcp_connects"] + 1
            assert after["rpc_timeouts"] == before["rpc_timeouts"]
            assert not client._pending and not client._streams
        finally:
            run(loop, client.close())
            listener.close()

    def test_an_oversized_stream_prefix_ends_that_connection_only(self, loop):
        server, client = make_server(loop), make_client(loop)
        try:
            server.register("node:1", echo_handler)
            client.add_route("node:1", server.listen_address)
            before = snapshot()
            with socket.create_connection(server.listen_address, timeout=5) as rogue:
                # A u32 length above the unframer's 64 MB bound.
                rogue.sendall((2**32 - 1).to_bytes(4, "big"))
                assert rogue.recv(1) == b""
            after = snapshot()
            assert after["rpc_codec_errors"] == before["rpc_codec_errors"] + 1
            assert client.send(request_to("node:1")) is not None
        finally:
            run(loop, client.close())
            run(loop, server.close())


class TestBatchedRequests:
    def test_send_many_returns_aligned_responses(self, loop):
        server, client = make_server(loop), make_client(loop)
        try:
            server.register("node:1", echo_handler)
            client.add_route("node:1", server.listen_address)
            before = snapshot()
            messages = [request_to("node:1", (f"req-{i}",)) for i in range(6)]
            results = client.send_many(messages)
            assert [r.payload for r in results] == [m.payload for m in messages]
            after = snapshot()
            assert after["rpc_batches"] == before["rpc_batches"] + 1
            assert (
                after["rpc_batched_messages"]
                == before["rpc_batched_messages"] + 6
            )
        finally:
            run(loop, client.close())
            run(loop, server.close())

    def test_request_many_reports_failures_per_item(self, loop):
        server, client = make_server(loop), make_client(loop)
        try:
            server.register("node:1", echo_handler)
            client.add_route("node:1", server.listen_address)
            client.add_route("node:dead", dead_address())
            messages = [
                request_to("node:1", ("ok-1",)),
                request_to("node:dead", ("doomed",)),
                request_to("node:1", ("ok-2",)),
            ]
            results = run(loop, client.request_many(messages))
            assert results[0].payload == ("ok-1",)
            assert isinstance(results[1], DeliveryError)
            assert results[2].payload == ("ok-2",)
        finally:
            run(loop, client.close())
            run(loop, server.close())

    def test_send_many_raises_first_failure_after_all_settle(self, loop):
        server, client = make_server(loop), make_client(loop)
        try:
            server.register("node:1", echo_handler)
            client.add_route("node:1", server.listen_address)
            client.add_route("node:dead", dead_address())
            with pytest.raises(DeliveryError):
                client.send_many(
                    [request_to("node:dead"), request_to("node:1")]
                )
        finally:
            run(loop, client.close())
            run(loop, server.close())

    def test_a_publish_crosses_once_and_creates_no_task(self):
        corpus = SyntheticCorpus(CorpusConfig(num_articles=4, num_authors=2, seed=3))
        with LocalCluster(3, replication=2) as cluster:
            client = cluster.client()
            try:
                # Dial every daemon first: the dial is the one Task.
                for node_id in client.members:
                    assert client.ping(node_id)
                before = snapshot()
                with tasks_created(client._loop) as created:
                    for record in corpus.records:
                        client.insert_record(record)
                after = snapshot()
            finally:
                client.close()
        published = len(corpus.records)
        crossings = after["rpc_thread_crossings"] - before["rpc_thread_crossings"]
        assert created == []
        assert crossings == published
        assert after["rpc_batches"] - before["rpc_batches"] == published

    def test_send_many_refuses_loop_thread(self, loop):
        client = make_client(loop)
        try:
            failure = []

            def on_loop():
                try:
                    client.send_many([request_to("node:1")])
                except TransportError as error:
                    failure.append(error)

            run(loop, asyncio.sleep(0))
            done = threading.Event()
            loop.call_soon_threadsafe(lambda: (on_loop(), done.set()))
            assert done.wait(timeout=5)
            assert failure and "event-loop thread" in str(failure[0])
        finally:
            run(loop, client.close())

    def test_send_many_empty_batch_is_noop(self, loop):
        client = make_client(loop)
        try:
            assert client.send_many([]) == []
        finally:
            run(loop, client.close())
