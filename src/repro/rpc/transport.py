"""Real-socket transport with the `SimulatedTransport` surface.

:class:`AsyncioTransport` carries :class:`repro.net.message.Message`
frames over TCP between named endpoints, exposing the ``register`` /
``send`` / ``send_async`` surface of
:class:`repro.net.transport.SimulatedTransport` -- so
:class:`repro.core.service.IndexService` and
:class:`repro.core.engine.LookupEngine` run over real sockets unchanged.

Differences from the simulated transport, all deliberate:

- **Names resolve to addresses** via :meth:`add_route` (names of the
  shape ``daemon@host:port`` self-resolve).  Sending to a name with
  neither a handler nor a route raises :class:`TransportError`, the
  simulation's "never existed" misuse error.
- **Failure detection is a connection and a timer.**  A refused dial or
  a lost connection is :class:`~repro.net.transport.DeliveryError`
  ``unregistered`` at once (the service fails over); a request
  unanswered within its one deadline is ``timeout`` -- transient like
  ``dropped``, so the engine's retries apply unchanged.  The transport
  itself never re-sends: retries live one layer up.  An ERROR frame
  (unknown endpoint, crashed node) is a ``DeliveryError`` of its reason.
- **Time is wall-clock** behind the kernel's clock protocol: a
  :class:`WallClock` whose ``now`` is milliseconds, like
  :class:`repro.sim.kernel.EventKernel`, so traces stay in one unit.

Every frame is counted in :mod:`repro.perf` (``rpc_*``, real bytes both
ways) and, with a tracer bound, traced as the simulated transport's
``dht_route_hop`` events, the response leg with its measured round trip.

Threading model: the transport lives on one asyncio event loop, and one
callback-driven core (:meth:`AsyncioTransport.send_async`) carries every
exchange there: a request is a frame on a connection, a deadline timer
and two continuations -- no Task, no coroutine, no Future.
:meth:`request` and :meth:`request_many` are the Future adapters for
coroutines on the loop; another thread's :meth:`send` / :meth:`send_many`
/ :meth:`run_blocking` cross onto the loop once (refused on it).

One channel: the one TCP connection per peer address -- dialled on first
use (the only Task: its ``create_connection``), split by the codec's
:class:`StreamUnframer`, shared by every exchange to that peer (the
request id tells them apart).  One dispatcher takes every frame: a
REQUEST is served and answered on the connection it came on; anything
else settles the exchange pending under its id.  A lost connection
(refused, reset, EOF, a codec error on the stream) leaves the map and
fails each exchange in flight on it; the next request dials again.  The
accepting side pauses reading while its socket has paused writing.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import itertools
import math
import threading
import time
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional

from repro.net.message import Message
from repro.net.traffic import TrafficMeter
from repro.net.transport import (
    DeliveryError,
    Endpoint,
    ErrorCallback,
    ResponseCallback,
    TransportError,
)
from repro.perf import counters
from repro.rpc.codec import (
    FRAME_ACK,
    FRAME_ERROR,
    FRAME_REQUEST,
    FRAME_RESPONSE,
    STREAM_PREFIX_BYTES,
    Buffer,
    CodecError,
    SignedEnvelope,
    StreamUnframer,
    decode_error,
    decode_frame_signed,
    decode_message,
    encode_error,
    encode_frame,
    encode_message,
    encode_stream,
    sign_frame,
)
from repro.sec import PUBLIC_KEY_BYTES, NodeIdentity, verify_signature

if TYPE_CHECKING:
    from repro.obs.tracer import SpanRef, Tracer

#: Address of one peer daemon.
Address = tuple[str, int]

#: Prefix of self-resolving daemon control endpoint names.
DAEMON_NAME_PREFIX = "daemon@"


def daemon_endpoint_name(host: str, port: int) -> str:
    """Control endpoint name of the daemon listening at ``host:port``."""
    return f"{DAEMON_NAME_PREFIX}{host}:{port}"


def parse_daemon_name(name: str) -> Optional[Address]:
    """The address a ``daemon@host:port`` name self-resolves to."""
    if not name.startswith(DAEMON_NAME_PREFIX):
        return None
    host, _, port_text = name[len(DAEMON_NAME_PREFIX):].rpartition(":")
    if not host or not port_text.isdigit():
        return None
    return host, int(port_text)


class WallClock:
    """Monotonic wall time in milliseconds, behind the kernel's protocol.

    Exposes the same ``now`` property as
    :class:`repro.sim.kernel.EventKernel`, so everything written against
    the virtual clock (the tracer, latency bookkeeping) runs unchanged
    on real time.  The epoch is the instant of construction.
    """

    __slots__ = ("_t0",)

    def __init__(self) -> None:
        self._t0 = time.monotonic()

    @property
    def now(self) -> float:
        """Milliseconds since this clock was created."""
        return (time.monotonic() - self._t0) * 1000.0


@dataclass(slots=True)
class _Exchange:
    """One request in flight: where it went, who waits, and its
    deadline ``handle``."""

    message: Message
    address: Address
    on_result: ResponseCallback
    on_error: ErrorCallback
    span: Optional["SpanRef"]
    started: float
    request_id: int
    handle: Optional[asyncio.TimerHandle] = None


class _Stream(asyncio.Protocol):
    """One TCP connection, dialled (``address`` given) or accepted: bytes
    in go through a :class:`StreamUnframer` to the owner's dispatcher,
    frames out length-prefixed, held in ``backlog`` while dialling."""

    def __init__(
        self, owner: "AsyncioTransport", address: Optional[Address] = None
    ) -> None:
        self.owner = owner
        self.address = address
        self.accepted = address is None
        self.unframer = StreamUnframer()
        self.transport: Optional[asyncio.Transport] = None
        self.backlog: list[bytes] = []
        self.dial: Optional[asyncio.Task] = None

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        if self.accepted:
            self.address = tuple(transport.get_extra_info("peername")[:2])
            self.owner._streams[self.address] = self
        else:
            counters.rpc_tcp_connects += 1
        transport.writelines(self.backlog)
        self.backlog.clear()

    def send(self, frame: bytes) -> None:
        payload = encode_stream(frame)
        if self.transport is None:
            self.backlog.append(payload)
        else:
            self.transport.write(payload)
        counters.rpc_tcp_frames += 1
        counters.rpc_bytes_sent += len(payload)

    def close(self) -> None:
        if self.transport is not None:
            self.transport.close()
        elif self.dial is not None:
            self.dial.cancel()

    def data_received(self, data: bytes) -> None:
        try:
            frames = self.unframer.feed(data)
        except CodecError:
            counters.rpc_codec_errors += 1
            self.transport.close()
            return
        for frame in frames:
            if self.transport.is_closing():
                return
            self.owner._on_frame(frame, self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.owner._lost(self)

    def pause_writing(self) -> None:
        if self.accepted:
            self.transport.pause_reading()

    def resume_writing(self) -> None:
        if self.accepted:
            self.transport.resume_reading()


class AsyncioTransport:
    """TCP message transport with the simulated-transport surface."""

    #: Default deadline of one exchange, in milliseconds: the window a
    #: slow but live peer gets before the exchange fails as ``timeout``.
    REQUEST_TIMEOUT_MS = 3750.0

    def __init__(
        self,
        *,
        meter: Optional[TrafficMeter] = None,
        clock: Optional[WallClock] = None,
        request_timeout_ms: float = REQUEST_TIMEOUT_MS,
        udp_max_bytes: object = None,  # ignored: bench/layers.py passes it (ROADMAP item 3)
        identity: Optional[NodeIdentity] = None,
        require_signed: bool = False,
        peer_keys: Optional[dict[str, bytes]] = None,
    ) -> None:
        """``request_timeout_ms`` is each exchange's one deadline.

        ``identity`` switches on signed (version-2, see
        :mod:`repro.rpc.codec`) ed25519 frames, and every incoming signed
        frame is verified: a bad signature is ``verify_failed`` for
        either side.  Unsigned peers still interop unless
        ``require_signed`` is set.  Signed replies are also held to a
        per-endpoint key pin (:meth:`_verify_reply`), seeded from
        ``peer_keys`` (the cluster roster), else learned on first contact.
        """
        if require_signed and identity is None:
            raise ValueError("require_signed needs an identity to sign with")
        if not 0 < request_timeout_ms < math.inf:
            raise ValueError("timeouts must be positive, finite milliseconds")
        self.meter = meter if meter is not None else TrafficMeter()
        self.clock = clock if clock is not None else WallClock()
        self.request_timeout_ms = request_timeout_ms
        self.identity = identity
        self.require_signed = require_signed
        #: Endpoint name -> pinned ed25519 public key (see pin_peer).
        self._pinned_keys: dict[str, bytes] = {}
        for name, key in (peer_keys or {}).items():
            self.pin_peer(name, key)
        self.tracer: Optional["Tracer"] = None
        self._endpoints: dict[str, Endpoint] = {}
        self._routes: dict[str, Address] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: The loop's thread while the transport is open, else None.
        self._loop_thread: Optional[int] = None
        self._server: Optional[asyncio.base_events.Server] = None
        #: Peer address -> its one TCP connection, dialled or accepted.
        self._streams: dict[Address, _Stream] = {}
        #: Request id -> the exchange in flight under it.
        self._pending: dict[int, _Exchange] = {}
        #: Callers blocked in run_blocking (see _finish).
        self._blocked: set[concurrent.futures.Future] = set()
        self._request_ids = itertools.count(1)
        self.listen_address: Optional[Address] = None

    # -- lifecycle ----------------------------------------------------------

    async def start(
        self, host: Optional[str] = None, port: int = 0
    ) -> Optional[Address]:
        """Bring the transport up on the running loop.

        With a ``host``, listens for TCP connections there (``port=0``
        lets the OS choose; the chosen port is in :attr:`listen_address`)
        -- the daemon mode.  Without a host it binds nothing -- the
        client mode: its connections are all dialled.
        """
        if self._loop is not None:
            raise TransportError("transport already started")
        self._loop = asyncio.get_running_loop()
        self._loop_thread = threading.get_ident()
        if host is None:
            return None
        self._server = await self._loop.create_server(
            lambda: _Stream(self), host=host, port=port
        )
        self.listen_address = (host, self._server.sockets[0].getsockname()[1])
        return self.listen_address

    async def close(self) -> None:
        """Tear the sockets down and fail every in-flight request."""
        self._loop_thread = None
        for exchange in list(self._pending.values()):
            self._fail(exchange, DeliveryError.TIMEOUT)
        for stream in list(self._streams.values()):
            stream.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- endpoint protocol (parity with SimulatedTransport) -----------------

    def register(self, name: str, endpoint: Endpoint) -> None:
        """Attach a local endpoint under a unique name."""
        if name in self._endpoints:
            raise TransportError(f"endpoint already registered: {name!r}")
        self._endpoints[name] = endpoint

    def is_registered(self, name: str) -> bool:
        """True for local endpoints and routed (remote) names alike."""
        return name in self._endpoints or name in self._routes

    def bind_tracer(self, tracer: Optional["Tracer"]) -> None:
        """Attach (or detach) the lookup tracer (see SimulatedTransport)."""
        self.tracer = tracer

    # -- routing ------------------------------------------------------------

    def add_route(self, name: str, address: Address) -> None:
        """Map a remote endpoint name to its daemon's socket address."""
        self._routes[name] = address

    def remove_route(self, name: str) -> None:
        """Forget a remote endpoint (e.g. a departed daemon's names)."""
        self._routes.pop(name, None)

    def pin_peer(self, name: str, public_key: bytes) -> None:
        """Pin ``name``'s ed25519 public key from out-of-band knowledge.

        Signed replies from ``name`` must thereafter carry exactly this
        key; anything else is rejected as ``verify_failed``.  Re-pinning
        the same key is a no-op; changing an established pin must be an
        explicit operator decision, so a conflicting pin raises.
        """
        key = bytes(public_key)
        if len(key) != PUBLIC_KEY_BYTES:
            raise ValueError(f"bad public key length: {len(key)}")
        current = self._pinned_keys.get(name)
        if current is not None and current != key:
            raise TransportError(f"conflicting key pin for {name!r}")
        self._pinned_keys[name] = key

    def pinned_key(self, name: str) -> Optional[bytes]:
        """The pinned (seeded or learned) key of ``name``, if any."""
        return self._pinned_keys.get(name)

    def _resolve(self, name: str) -> Address:
        address = self._routes.get(name)
        if address is None:
            address = parse_daemon_name(name)
        if address is None:
            raise TransportError(f"no route to endpoint: {name!r}")
        return address

    # -- request path (the one exchange core) --------------------------------

    def send_async(
        self,
        message: Message,
        on_result: ResponseCallback,
        on_error: ErrorCallback,
    ) -> Optional[_Exchange]:
        """Start one request, on the loop thread; every surface ends here.

        Exactly one continuation fires, later and on the loop thread:
        ``on_result`` with the reply (``None`` for an ACK), or
        ``on_error`` with the :class:`DeliveryError` (``timeout`` at the
        deadline, ``unregistered`` for a refused or lost connection, or
        the peer-reported reason).  Misuse (wrong thread, unroutable
        name, not running) raises here.  Returns the exchange in flight
        (``None`` for a local destination).
        """
        if threading.get_ident() != self._loop_thread:
            raise TransportError("send_async off the open transport's loop thread")
        handler = self._endpoints.get(message.destination)
        if handler is not None:
            response = self._deliver_local(handler, message)
            self._loop.call_soon(self._finish, on_result, response)
            return None
        address = self._resolve(message.destination)
        body = encode_message(message, signed=self.identity is not None)
        self.meter.record(message)
        counters.rpc_requests += 1
        span, started = None, 0.0
        if self.tracer is not None:
            span, started = self.tracer.current, self.clock.now
            self.tracer.message_hop(message, "request", 0.0, span)
        request_id = next(self._request_ids)
        exchange = _Exchange(
            message, address, on_result, on_error, span, started, request_id
        )
        self._pending[request_id] = exchange
        self._channel(address).send(self._frame(FRAME_REQUEST, request_id, body))
        exchange.handle = self._loop.call_later(
            self.request_timeout_ms / 1000.0, self._expire, exchange
        )
        return exchange

    def _channel(self, address: Address) -> _Stream:
        """The one TCP connection to ``address``, dialled on first use."""
        stream = self._streams.get(address)
        if stream is None:
            stream = self._streams[address] = _Stream(self, address)
            stream.dial = self._loop.create_task(
                self._loop.create_connection(lambda: stream, *address)
            )
            stream.dial.add_done_callback(partial(self._dialled, stream))
        elif stream.transport is not None:
            counters.rpc_tcp_reuses += 1
        return stream

    def _dialled(self, stream: _Stream, dial: asyncio.Task) -> None:
        """A failed dial is a lost connection (a cancelled one, closed)."""
        if not dial.cancelled() and dial.exception() is not None:
            self._lost(stream)

    def _lost(self, stream: _Stream) -> None:
        """``stream`` is gone: it leaves the map, and each exchange in
        flight on it fails as ``unregistered`` -- the peer's port is
        gone or its connection broke, so the service fails over."""
        address = stream.address
        if self._streams.get(address) is not stream:
            return  # already replaced under its address
        del self._streams[address]
        for exchange in [e for e in self._pending.values() if e.address == address]:
            self._fail(exchange, DeliveryError.UNREGISTERED)

    def _expire(self, exchange: _Exchange) -> None:
        """The deadline of ``exchange`` passed unanswered."""
        counters.rpc_timeouts += 1
        self._fail(exchange, DeliveryError.TIMEOUT)

    def _fail(self, exchange: _Exchange, reason: str) -> None:
        """End ``exchange``, its deadline disarmed, with a delivery failure."""
        self._pending.pop(exchange.request_id, None)
        exchange.handle.cancel()
        error = DeliveryError(reason, exchange.message.destination)
        self._finish(exchange.on_error, error)

    def _on_reply(
        self, exchange: _Exchange, reply: tuple[int, bytes, Optional[SignedEnvelope]]
    ) -> None:
        """The outcome of ``exchange`` from its reply frame -- the one
        place a reply is verified and decoded, whichever surface waits
        for it."""
        frame_type, body, envelope = reply
        destination = exchange.message.destination
        try:
            self._verify_reply(envelope, destination)
            if frame_type == FRAME_ERROR:
                raise DeliveryError(decode_error(body), destination)
            response = None
            if frame_type != FRAME_ACK:
                response = decode_message(body, signed=envelope is not None)
                self.meter.record(response)
                counters.rpc_responses += 1
        except (DeliveryError, CodecError) as error:
            return self._finish(exchange.on_error, error)
        if response is not None and self.tracer is not None:
            rtt_ms = self.clock.now - exchange.started
            self.tracer.message_hop(response, "response", rtt_ms, exchange.span)
        self._finish(exchange.on_result, response)

    def _finish(self, callback: Callable[..., None], *args: object) -> None:
        """Run a continuation.  Nothing above it can handle what it
        raises, and a thread in :meth:`run_blocking` would wait for ever
        for an outcome that can no longer come: every blocked caller gets
        the exception instead.  Without one it is the loop's to report."""
        try:
            callback(*args)
        except Exception as error:
            blocked = [done for done in list(self._blocked) if not done.done()]
            for done in blocked:
                done.set_exception(error)
            if not blocked:
                self._loop.call_exception_handler(
                    {"message": "transport continuation raised", "exception": error}
                )

    def post(self, delay_ms: float, fn: Callable[[], None]) -> None:
        """The event kernel's ``post`` on the transport's loop: the retry
        backoff of :meth:`LookupEngine.start_async` is a real timer here."""
        self._loop.call_later(delay_ms / 1000.0, self._finish, fn)

    def _verify_reply(
        self, envelope: Optional[SignedEnvelope], destination: str
    ) -> None:
        """Check a reply's signature (or its absence) before trusting it.
        A bad signature, an unsigned reply under ``require_signed``, or a
        valid signature by a key other than ``destination``'s pin (seeded
        via ``peer_keys``/``pin_peer``, else learned on first contact) is
        ``DeliveryError(verify_failed)``: transient and
        ``retry_elsewhere``, so the service fails over to another replica
        exactly as the simulated adversary path does."""
        if envelope is None:
            if self.require_signed:
                counters.sec_verify_failures += 1
                raise DeliveryError(DeliveryError.VERIFY_FAILED, destination)
            return
        if not verify_signature(
            envelope.public_key, envelope.signed, envelope.signature
        ):
            counters.sec_verify_failures += 1
            if self.tracer is not None:
                self.tracer.sec_verify_fail(destination=destination, role="unknown")
            raise DeliveryError(DeliveryError.VERIFY_FAILED, destination)
        reply_key = bytes(envelope.public_key)
        pinned = self._pinned_keys.get(destination)
        if pinned is None:
            # Trust on first use: remember the key this endpoint first
            # answered with and hold it to that from now on.
            self._pinned_keys[destination] = reply_key
        elif reply_key != pinned:
            counters.sec_verify_failures += 1
            if self.tracer is not None:
                self.tracer.sec_verify_fail(destination=destination, role="impostor")
            raise DeliveryError(DeliveryError.VERIFY_FAILED, destination)

    def _frame(self, frame_type: int, request_id: int, body: bytes = b"") -> bytes:
        """An outgoing frame, signed when an identity is set."""
        if self.identity is not None:
            return sign_frame(frame_type, request_id, body, self.identity)
        return encode_frame(frame_type, request_id, body)

    def _error_frame(self, request_id: int, reason: str) -> bytes:
        return self._frame(FRAME_ERROR, request_id, encode_error(reason))

    def _deliver_local(self, handler: Endpoint, message: Message) -> Optional[Message]:
        """Serve a locally hosted destination without touching sockets.

        The message still round-trips through the codec, so local and
        remote delivery exercise identical wire semantics and metering.
        """
        delivered = decode_message(encode_message(message))
        self.meter.record(delivered)
        response = handler(delivered)
        if response is None:
            return None
        returned = decode_message(encode_message(response))
        self.meter.record(returned)
        return returned

    # -- surfaces over the core: Future, blocking -----------------------------

    async def request(self, message: Message) -> Optional[Message]:
        """Send one message and await its reply (None for an ACK): the
        Future adapter over :meth:`send_async`, raising what the core
        hands ``on_error``.  Cancelling the awaiter ends the exchange."""
        future = asyncio.get_running_loop().create_future()
        exchange = self.send_async(message, future.set_result, future.set_exception)
        try:
            return await future
        finally:
            if future.cancelled():
                self._abandon(exchange)

    async def request_many(self, messages: list[Message]) -> list[object]:
        """Issue several requests concurrently -- the pipelined path, as
        the Future adapter over :meth:`_fan_out`: a list aligned with
        ``messages`` (runtime failures are per-item ``DeliveryError``s,
        so one dead replica cannot abort the batch).  Misuse still
        raises; cancelling the awaiter ends every exchange."""
        future = asyncio.get_running_loop().create_future()
        exchanges = self._fan_out(messages, future.set_result, future.set_exception)
        try:
            return await future
        finally:
            if future.cancelled():
                for exchange in exchanges:
                    self._abandon(exchange)

    def _fan_out(
        self,
        messages: list[Message],
        on_result: Callable[[list[object]], None],
        on_error: ErrorCallback,
    ) -> list[Optional[_Exchange]]:
        """Start one exchange per message at once; after the last one
        settles, ``on_result`` gets the aligned outcomes -- response,
        ``None`` for an ACK, or the :class:`DeliveryError` -- or
        ``on_error`` the first other error.  Returns the exchanges."""
        counters.rpc_batches += 1
        counters.rpc_batched_messages += len(messages)
        results: list[object] = [None] * len(messages)
        left = len(messages)

        def settle(index: int, outcome: object) -> None:
            nonlocal left
            results[index] = outcome
            left -= 1
            if left:
                return
            for item in results:
                if isinstance(item, Exception) and not isinstance(item, DeliveryError):
                    return on_error(item)
            on_result(results)

        if not messages:
            on_result(results)
        exchanges = []
        for index, message in enumerate(messages):
            settled = partial(settle, index)
            exchanges.append(self.send_async(message, settled, settled))
        return exchanges

    def _abandon(self, exchange: Optional[_Exchange]) -> None:
        """End an exchange nobody waits for (``None``: a local delivery)."""
        if exchange is not None and self._pending.pop(exchange.request_id, None):
            exchange.handle.cancel()

    def _cross(self) -> asyncio.AbstractEventLoop:
        """The loop, for one call about to be marshalled onto it (counted)."""
        if self._loop is None or threading.get_ident() == self._loop_thread:
            raise TransportError("blocking call on the event-loop thread, or unstarted")
        counters.rpc_thread_crossings += 1
        return self._loop

    def run_blocking(
        self, start: Callable[[concurrent.futures.Future], None]
    ) -> object:
        """Run ``start(done)`` on the loop; block this thread on ``done``.

        One crossing in, one out, however many exchanges the started
        work chains on the loop; what ``start`` or a continuation raises
        there reaches this caller (see :meth:`_finish`).
        """
        loop = self._cross()
        done: concurrent.futures.Future = concurrent.futures.Future()
        self._blocked.add(done)
        try:
            loop.call_soon_threadsafe(self._finish, start, done)
            return done.result()
        finally:
            self._blocked.discard(done)

    def send(self, message: Message) -> Optional[Message]:
        """Blocking request from a non-loop thread, with the semantics of
        ``SimulatedTransport.send``: the response message or ``None``,
        :class:`DeliveryError` for runtime failures."""
        return self.run_blocking(
            lambda done: self.send_async(message, done.set_result, done.set_exception)
        )

    def send_many(self, messages: list[Message]) -> list[object]:
        """Blocking batched request from a non-loop thread: one crossing
        (:meth:`_fan_out` under :meth:`run_blocking`), every exchange
        concurrent.  After all of them settle, the first
        :class:`DeliveryError` (if any) is raised -- the sequential
        path's failure surface, every message still attempted."""
        if not messages:
            return []
        results = self.run_blocking(
            lambda done: self._fan_out(messages, done.set_result, done.set_exception)
        )
        for result in results:
            if isinstance(result, DeliveryError):
                raise result
        return results

    # -- serving ------------------------------------------------------------

    def _on_frame(self, data: Buffer, stream: _Stream) -> None:
        """The one dispatcher of frames off ``stream``: a REQUEST is
        served and answered on it; anything else settles the exchange
        pending under its request id.  A frame that does not decode is
        dropped -- and ends its stream, whose position is then unknown."""
        counters.rpc_bytes_received += len(data) + STREAM_PREFIX_BYTES
        try:
            frame_type, request_id, body, envelope = decode_frame_signed(data)
        except CodecError:
            counters.rpc_codec_errors += 1
            stream.transport.close()
            return
        if frame_type == FRAME_REQUEST:
            stream.send(self._serve_request(request_id, body, envelope))
            return
        exchange = self._pending.pop(request_id, None)
        if exchange is not None:  # else late (deadline passed) or unknown
            exchange.handle.cancel()
            self._on_reply(exchange, (frame_type, bytes(body), envelope))

    def _serve_request(
        self,
        request_id: int,
        body: bytes,
        envelope: Optional[SignedEnvelope] = None,
    ) -> bytes:
        """Handle one incoming REQUEST; returns the reply frame."""
        if envelope is not None and not verify_signature(
            envelope.public_key, envelope.signed, envelope.signature
        ):
            # A forged request is refused before the handler runs.
            counters.sec_verify_failures += 1
            return self._error_frame(request_id, DeliveryError.VERIFY_FAILED)
        if self.require_signed and envelope is None:
            return self._error_frame(request_id, DeliveryError.VERIFY_FAILED)
        try:
            message = decode_message(body, signed=envelope is not None)
        except CodecError:
            counters.rpc_codec_errors += 1
            return self._error_frame(request_id, "codec")
        handler = self._endpoints.get(message.destination)
        if handler is None:
            # Over the wire every unknown name is a runtime condition
            # (the peer cannot distinguish "never existed" from
            # "departed"), so it maps to the departed reason.
            return self._error_frame(request_id, DeliveryError.UNREGISTERED)
        self.meter.record(message)
        try:
            response = handler(message)
        except Exception as error:
            # The socket callback must keep serving: a request its handler
            # cannot read (a payload of the wrong shape) is answered, not
            # raised out of it -- else the sender would wait out its
            # deadline, and asyncio would close the connection under
            # every other exchange on it.
            self._loop.call_exception_handler(
                {"message": f"request to {message.destination!r} refused",
                 "exception": error}
            )
            return self._error_frame(request_id, "bad-request")
        if response is None:
            return self._frame(FRAME_ACK, request_id)
        try:
            response_body = encode_message(response, signed=self.identity is not None)
        except CodecError:
            # A reply past the codec's limits fails this exchange alone.
            counters.rpc_codec_errors += 1
            return self._error_frame(request_id, "codec")
        self.meter.record(response)
        return self._frame(FRAME_RESPONSE, request_id, response_body)
