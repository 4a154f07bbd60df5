"""The server-side dedupe cache is bounded: LRU capacity + TTL expiry.

Regression tests for the ``(addr, request id)`` reply cache in
:class:`repro.rpc.transport.AsyncioTransport`.  The seed version grew
without bound (one entry per request, forever); these pin the bounds --
capacity eviction in LRU order, TTL expiry on both read and write paths,
replay refreshing recency -- and that a retransmission within the bounds
still gets the remembered reply without re-running the handler.

The cache is exercised through ``_serve_request`` with a controllable
clock; no sockets are involved, so the tests are deterministic.
"""

import pytest

from repro.net.message import Message, MessageKind
from repro.rpc.codec import FRAME_RESPONSE, decode_frame, encode_message
from repro.rpc.transport import AsyncioTransport

ADDR = ("127.0.0.1", 54321)
OTHER_ADDR = ("127.0.0.1", 54322)


class ManualClock:
    """A clock the test advances by hand (milliseconds)."""

    def __init__(self) -> None:
        self.now = 0.0

    def advance_s(self, seconds: float) -> None:
        self.now += seconds * 1000.0


def request_body(payload=("hello",)):
    return encode_message(
        Message(
            kind=MessageKind.QUERY_REQUEST,
            source="user:0",
            destination="node:1",
            payload=payload,
        )
    )


@pytest.fixture
def harness():
    clock = ManualClock()
    transport = AsyncioTransport(clock=clock)
    transport.DEDUPE_CAP = 4
    calls = []

    def handler(message):
        calls.append(message.payload)
        return message.reply(MessageKind.QUERY_RESPONSE, message.payload)

    transport.register("node:1", handler)
    return transport, clock, calls


def serve(transport, request_id, addr=ADDR, payload=("hello",)):
    return transport._serve_request(
        request_id, request_body(payload), addr, via_udp=True
    )


def test_retransmission_replays_without_rerunning_handler(harness):
    transport, _, calls = harness
    first = serve(transport, request_id=7)
    again = serve(transport, request_id=7)
    assert first == again
    assert len(calls) == 1
    frame_type, request_id, _ = decode_frame(first)
    assert frame_type == FRAME_RESPONSE and request_id == 7


def test_capacity_evicts_least_recently_used(harness):
    transport, _, calls = harness
    for request_id in range(1, 5):  # fill the cap-4 cache
        serve(transport, request_id)
    serve(transport, 1)  # refresh id 1: id 2 is now the LRU entry
    serve(transport, 5)  # overflow evicts id 2
    assert len(transport._served) == 4
    assert (ADDR, 2) not in transport._served
    assert (ADDR, 1) in transport._served
    calls.clear()
    serve(transport, 1)  # still remembered: replayed, not re-run
    serve(transport, 2)  # evicted: the handler runs again
    assert calls == [("hello",)]


def test_ttl_expires_stale_replies(harness):
    transport, clock, calls = harness
    serve(transport, request_id=9)
    clock.advance_s(59.0)
    serve(transport, request_id=9)  # fresh: replayed
    assert len(calls) == 1
    clock.advance_s(61.0)  # past the (refreshed) 60 s deadline
    serve(transport, request_id=9)  # expired: handler runs again
    assert len(calls) == 2


def test_replay_refreshes_the_ttl(harness):
    transport, clock, calls = harness
    serve(transport, request_id=3)
    for _ in range(4):  # keep retrying every 50 s for 200 s total
        clock.advance_s(50.0)
        serve(transport, request_id=3)
    assert len(calls) == 1  # every retry hit the refreshed entry


def test_expired_entries_drain_on_insert(harness):
    transport, clock, _ = harness
    for request_id in range(1, 4):
        serve(transport, request_id)
    clock.advance_s(120.0)  # all three entries are now stale
    serve(transport, request_id=10)
    assert set(transport._served) == {(ADDR, 10)}


def test_same_request_id_from_different_peers_is_distinct(harness):
    transport, _, calls = harness
    serve(transport, request_id=7, addr=ADDR, payload=("a",))
    serve(transport, request_id=7, addr=OTHER_ADDR, payload=("b",))
    assert calls == [("a",), ("b",)]
    assert len(transport._served) == 2


class TestSpoofedRejectionNotCached:
    """A require_signed rejection must not occupy the reply cache.

    The source address of an unsigned datagram is attacker-chosen, so a
    cached rejection under ``(victim addr, request id)`` would let a
    spoofer pre-poison the reply slot of the victim's next (guessably
    sequential) request.
    """

    @pytest.fixture
    def signed_harness(self):
        from repro.rpc.codec import (
            FRAME_REQUEST,
            decode_frame_signed,
            sign_frame,
        )
        from repro.sec import NodeIdentity

        clock = ManualClock()
        transport = AsyncioTransport(
            clock=clock,
            identity=NodeIdentity("dedupe-server"),
            require_signed=True,
        )
        calls = []

        def handler(message):
            calls.append(message.payload)
            return message.reply(MessageKind.QUERY_RESPONSE, message.payload)

        transport.register("node:1", handler)

        def serve_signed(request_id, identity, payload=("hello",)):
            message = Message(
                kind=MessageKind.QUERY_REQUEST,
                source="user:0",
                destination="node:1",
                payload=payload,
            )
            frame = sign_frame(
                FRAME_REQUEST,
                request_id,
                encode_message(message, signed=True),
                identity,
            )
            _, _, body, envelope = decode_frame_signed(frame)
            return transport._serve_request(
                request_id, bytes(body), ADDR, via_udp=True, envelope=envelope
            )

        return transport, calls, serve_signed

    def test_unsigned_rejection_not_remembered(self, signed_harness):
        transport, calls, _ = signed_harness
        transport._serve_request(7, request_body(), ADDR, via_udp=True)
        assert (ADDR, 7) not in transport._served
        assert calls == []

    def test_victim_request_survives_spoofed_prepoisoning(
        self, signed_harness
    ):
        """A spoofed unsigned datagram under the victim's next id must
        not mask the victim's authentic signed request."""
        from repro.sec import NodeIdentity

        transport, calls, serve_signed = signed_harness
        # Attacker spoofs the victim's address and guesses id 7.
        transport._serve_request(7, request_body(), ADDR, via_udp=True)
        # The victim's authentic request still reaches the handler.
        serve_signed(7, NodeIdentity("dedupe-victim"))
        assert calls == [("hello",)]
        assert (ADDR, 7) in transport._served  # the real reply is cached
