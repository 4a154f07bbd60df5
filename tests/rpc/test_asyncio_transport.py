"""Unit tests for AsyncioTransport over real loopback sockets."""

import asyncio
import socket
import threading

import pytest

from repro.net.message import Message, MessageKind
from repro.net.transport import DeliveryError, TransportError
from repro.perf import counters, snapshot
from repro.rpc.transport import (
    AsyncioTransport,
    WallClock,
    daemon_endpoint_name,
    parse_daemon_name,
)


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
def server(loop):
    transport = AsyncioTransport(request_timeout_ms=200.0, max_retries=2)
    run(loop, transport.start("127.0.0.1", 0))
    yield transport
    run(loop, transport.close())


@pytest.fixture
def client(loop):
    transport = AsyncioTransport(request_timeout_ms=200.0, max_retries=2)
    run(loop, transport.start())
    yield transport
    run(loop, transport.close())


def echo_handler(message):
    return message.reply(MessageKind.QUERY_RESPONSE, message.payload)


def request_to(name, payload=("hello",)):
    return Message(
        kind=MessageKind.QUERY_REQUEST,
        source="user:0",
        destination=name,
        payload=payload,
    )


class TestRequestResponse:
    def test_round_trip_over_udp(self, server, client):
        server.register("node:1", echo_handler)
        client.add_route("node:1", server.listen_address)
        before = snapshot()
        response = client.send(request_to("node:1", ("author=knuth",)))
        assert response is not None
        assert response.kind is MessageKind.QUERY_RESPONSE
        assert response.payload == ("author=knuth",)
        after = snapshot()
        assert after["rpc_requests"] == before["rpc_requests"] + 1
        assert after["rpc_responses"] == before["rpc_responses"] + 1
        assert after["rpc_udp_frames"] > before["rpc_udp_frames"]
        assert after["rpc_bytes_sent"] > before["rpc_bytes_sent"]

    def test_none_handler_result_is_acked(self, server, client):
        server.register("node:1", lambda message: None)
        client.add_route("node:1", server.listen_address)
        assert client.send(request_to("node:1")) is None

    def test_send_async_delivers_on_loop_thread(self, server, client, loop):
        server.register("node:1", echo_handler)
        client.add_route("node:1", server.listen_address)
        done = threading.Event()
        results = []
        loop.call_soon_threadsafe(
            client.send_async,
            request_to("node:1"),
            lambda response: (results.append(response), done.set()),
            lambda error: (results.append(error), done.set()),
        )
        assert done.wait(timeout=5)
        assert isinstance(results[0], Message)
        # The continuation surface is the loop thread's alone.
        with pytest.raises(TransportError, match="loop thread"):
            client.send_async(request_to("node:1"), results.append, results.append)

    def test_daemon_names_self_resolve(self, server, client):
        host, port = server.listen_address
        name = daemon_endpoint_name(host, port)
        server.register(name, echo_handler)
        # No add_route on the client: the name carries the address.
        assert parse_daemon_name(name) == (host, port)
        assert client.send(request_to(name)) is not None

    def test_local_endpoint_served_without_routing(self, client):
        client.register("node:5", echo_handler)
        response = client.send(request_to("node:5", ("x",)))
        assert response is not None and response.payload == ("x",)


@pytest.mark.parametrize("timeout_ms", [0.0, -1.0, float("nan"), float("inf")])
def test_timeout_must_be_positive_and_finite(timeout_ms):
    # nan passed a `<= 0` check and then timed every exchange out.
    with pytest.raises(ValueError):
        AsyncioTransport(request_timeout_ms=timeout_ms)


class TestFailureMapping:
    def test_unroutable_name_is_misuse(self, client):
        with pytest.raises(TransportError):
            client.send(request_to("node:nowhere"))

    def test_unknown_remote_endpoint_maps_to_unregistered(
        self, server, client
    ):
        client.add_route("node:9", server.listen_address)
        with pytest.raises(DeliveryError) as excinfo:
            client.send(request_to("node:9"))
        assert excinfo.value.reason == DeliveryError.UNREGISTERED
        assert excinfo.value.retry_elsewhere

    def test_silence_maps_to_timeout_after_retries(self, loop, client):
        # A bound socket that never answers: every attempt times out.
        sink = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sink.bind(("127.0.0.1", 0))
        try:
            client.add_route("node:3", sink.getsockname())
            client.request_timeout_ms = 50.0
            before = snapshot()
            with pytest.raises(DeliveryError) as excinfo:
                client.send(request_to("node:3"))
            assert excinfo.value.reason == DeliveryError.TIMEOUT
            # Timeouts are transient, exactly like dropped messages: the
            # caller retries the same node, it does not fail over.
            assert not excinfo.value.retry_elsewhere
            after = snapshot()
            assert after["rpc_retries"] == before["rpc_retries"] + 2
            assert after["rpc_timeouts"] == before["rpc_timeouts"] + 3
        finally:
            sink.close()

    def test_blocking_send_refused_on_loop_thread(self, loop, server, client):
        server.register("node:1", echo_handler)
        client.add_route("node:1", server.listen_address)

        async def misuse():
            client.send(request_to("node:1"))

        with pytest.raises(TransportError, match="event-loop thread"):
            run(loop, misuse())

    def test_duplicate_registration_refused(self, server):
        server.register("node:1", echo_handler)
        with pytest.raises(TransportError):
            server.register("node:1", echo_handler)


class TestTcpFallback:
    def test_oversized_request_travels_over_tcp(self, server, client):
        server.register("node:1", lambda m: m.reply(
            MessageKind.QUERY_RESPONSE, (str(len(m.payload[0])),)
        ))
        client.add_route("node:1", server.listen_address)
        before = snapshot()
        big = "x" * (client.udp_max_bytes * 3)
        response = client.send(request_to("node:1", (big,)))
        assert response is not None and response.payload == (str(len(big)),)
        after = snapshot()
        assert after["rpc_tcp_frames"] > before["rpc_tcp_frames"]

    def test_oversized_response_falls_back_to_tcp(self, server, client):
        big = "y" * 5000
        server.register("node:1", lambda m: m.reply(
            MessageKind.QUERY_RESPONSE, (big,)
        ))
        client.add_route("node:1", server.listen_address)
        before = snapshot()
        response = client.send(request_to("node:1"))
        assert response is not None and response.payload == (big,)
        after = snapshot()
        assert (
            after["rpc_oversized_fallbacks"]
            == before["rpc_oversized_fallbacks"] + 1
        )
        assert after["rpc_tcp_frames"] > before["rpc_tcp_frames"]

    def test_retransmit_dedupe_serves_cached_reply(self, server, client):
        calls = []

        def counting_handler(message):
            calls.append(message)
            return message.reply(MessageKind.QUERY_RESPONSE, ("once",))

        server.register("node:1", counting_handler)
        # Replay one request id by hand: the daemon must answer the
        # second copy from its reply cache without re-running the
        # handler (UDP retransmits must not double-apply requests).
        from repro.rpc.codec import (
            FRAME_REQUEST,
            decode_frame,
            encode_frame,
            encode_message,
        )

        frame = encode_frame(
            FRAME_REQUEST, 1, encode_message(request_to("node:1"))
        )
        probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        probe.settimeout(2.0)
        try:
            probe.sendto(frame, server.listen_address)
            first, _ = probe.recvfrom(65536)
            probe.sendto(frame, server.listen_address)
            second, _ = probe.recvfrom(65536)
        finally:
            probe.close()
        assert decode_frame(first) == decode_frame(second)
        assert len(calls) == 1


class TestWallClock:
    def test_now_is_monotonic_milliseconds(self):
        clock = WallClock()
        first = clock.now
        second = clock.now
        assert 0 <= first <= second

    def test_counters_include_rpc_slots(self):
        # The perf layer carries the transport's counters; spot-check
        # the slots exist so snapshots and regression tooling see them.
        for name in (
            "rpc_requests", "rpc_responses", "rpc_retries", "rpc_timeouts",
            "rpc_udp_frames", "rpc_tcp_frames", "rpc_oversized_fallbacks",
            "rpc_codec_errors", "rpc_bytes_sent", "rpc_bytes_received",
        ):
            assert isinstance(getattr(counters, name), int)
