"""Real-socket transport with the `SimulatedTransport` surface.

:class:`AsyncioTransport` carries :class:`repro.net.message.Message`
frames over UDP datagrams (with a transparent TCP fallback for frames
too large for a datagram) between named endpoints, exposing the same
``register`` / ``send`` / ``send_async`` surface the in-process
:class:`repro.net.transport.SimulatedTransport` gives the index stack --
so :class:`repro.core.service.IndexService` and
:class:`repro.core.engine.LookupEngine` run over real sockets unchanged.

Differences from the simulated transport, all deliberate:

- **Names resolve to addresses.**  Local handlers are registered as
  usual; every other endpoint name maps to a ``(host, port)`` socket
  address via :meth:`add_route` (daemon control names of the shape
  ``daemon@host:port`` self-resolve).  Sending to a name with neither a
  handler nor a route raises :class:`TransportError`, mirroring the
  simulation's "never existed" misuse error.
- **Failure detection is a timer.**  A request that gets no reply within
  its deadline is retried with capped exponential backoff; exhausting
  the retries raises the typed
  :class:`~repro.net.transport.DeliveryError` with the ``timeout``
  reason -- transient like ``dropped``, so the engine's retry logic and
  the service's failover policy apply unchanged.  A peer that answers
  with an ERROR frame (unknown endpoint, crashed node) surfaces as a
  ``DeliveryError`` with that reason.
- **Time is wall-clock behind the kernel's clock protocol.**  The
  transport owns a :class:`WallClock` exposing ``now`` in milliseconds
  exactly like :class:`repro.sim.kernel.EventKernel`, so the tracer's
  ``bind_clock`` works on either and trace timestamps stay in one unit.

Every frame movement is counted in :mod:`repro.perf`
(``rpc_*`` counters, including real byte counts on both directions) and
-- when a tracer is bound -- recorded as the same ``dht_route_hop`` span
events the simulated transport emits, with the measured round-trip time
on the response leg.

Threading model: the transport lives on one asyncio event loop.
:meth:`send` is the blocking surface for code running on *another*
thread (the sequential lookup engine, tests, the cluster harness); it
marshals onto the loop and waits.  Calling it from the loop thread is
refused -- use :meth:`send_async` (continuation-passing, callbacks fire
on the loop thread) or the native :meth:`request` coroutine there.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import OrderedDict
from typing import TYPE_CHECKING, Optional

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
    ENVELOPE_BYTES,
    FRAME_ACK,
    FRAME_ERROR,
    FRAME_REQUEST,
    FRAME_RESPONSE,
    OVERSIZED_REASON,
    SIGNED_TRAILER_BYTES,
    STREAM_PREFIX_BYTES,
    CodecError,
    SignedEnvelope,
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
    from repro.obs.tracer import Tracer

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


class _DatagramEndpoint(asyncio.DatagramProtocol):
    """Glue between asyncio's datagram callbacks and the transport."""

    def __init__(self, owner: "AsyncioTransport") -> None:
        self._owner = owner

    def datagram_received(self, data: bytes, addr: Address) -> None:
        self._owner._on_datagram(data, addr)

    def error_received(self, exc: Exception) -> None:
        # ICMP unreachable etc.; the request timeout handles the loss.
        pass


class AsyncioTransport:
    """UDP+TCP message transport with the simulated-transport surface."""

    #: Ceiling of the per-attempt deadline as retries double it.
    BACKOFF_CAP_MS = 2000.0

    def __init__(
        self,
        *,
        meter: Optional[TrafficMeter] = None,
        clock: Optional[WallClock] = None,
        request_timeout_ms: float = 250.0,
        max_retries: int = 3,
        udp_max_bytes: int = 1400,
        dedupe_cap: int = 1024,
        dedupe_ttl_s: float = 60.0,
        tcp_pool_cap: int = 4,
        identity: Optional[NodeIdentity] = None,
        require_signed: bool = False,
        peer_keys: Optional[dict[str, bytes]] = None,
    ) -> None:
        """``request_timeout_ms`` is the first attempt's deadline; each
        retry doubles it up to ``BACKOFF_CAP_MS`` (capped exponential
        backoff).  Frames larger than ``udp_max_bytes`` travel over TCP.
        ``dedupe_cap`` / ``dedupe_ttl_s`` bound the server-side reply
        cache that absorbs UDP retransmissions: at most ``dedupe_cap``
        entries, each discarded ``dedupe_ttl_s`` seconds after it was
        last replayed (a retransmission can only arrive within the
        sender's retry window, so a long-lived daemon need not remember
        replies forever).  ``tcp_pool_cap`` bounds the idle TCP
        connections kept open *per peer* for reuse (0 disables reuse and
        restores one-connection-per-exchange).

        ``identity`` switches on the signed-envelope wire extension
        (version-2 frames, see :mod:`repro.rpc.codec`): every outgoing
        frame is ed25519-signed, and every *incoming* signed frame is
        verified -- a bad signature surfaces as a typed
        ``DeliveryError(verify_failed)`` on the client side, or a
        ``verify_failed`` ERROR reply on the serving side.  Unsigned
        peers still interop (their frames stay version 1) unless
        ``require_signed`` is set, which rejects unsigned traffic too.

        A valid signature alone only proves the reply came from *some*
        keypair, so signed replies are additionally checked against a
        per-endpoint-name **key pin**: ``peer_keys`` seeds the pins from
        out-of-band knowledge (cluster membership roster), and endpoints
        without a seed pin on first contact (trust-on-first-use).  A
        signed reply whose key differs from the pin is rejected like a
        bad signature -- a keypair-swapping impostor cannot satisfy an
        established pin.
        """
        if require_signed and identity is None:
            raise ValueError("require_signed needs an identity to sign with")
        if request_timeout_ms <= 0:
            raise ValueError("timeouts must be positive milliseconds")
        if max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        if dedupe_cap < 1 or dedupe_ttl_s <= 0:
            raise ValueError("dedupe cache bounds must be positive")
        if tcp_pool_cap < 0:
            raise ValueError("tcp_pool_cap cannot be negative")
        self.meter = meter if meter is not None else TrafficMeter()
        self.clock = clock if clock is not None else WallClock()
        self.request_timeout_ms = request_timeout_ms
        self.max_retries = max_retries
        self.udp_max_bytes = udp_max_bytes
        self.identity = identity
        self.require_signed = require_signed
        #: Endpoint name -> pinned ed25519 public key (see pin_peer).
        self._pinned_keys: dict[str, bytes] = {}
        for name, key in (peer_keys or {}).items():
            self.pin_peer(name, key)
        self.tracer: Optional["Tracer"] = None
        self._endpoints: dict[str, Endpoint] = {}
        self._ever_registered: set[str] = set()
        self._routes: dict[str, Address] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[int] = None
        self._udp: Optional[asyncio.DatagramTransport] = None
        self._tcp_server: Optional[asyncio.base_events.Server] = None
        self._pending: dict[int, asyncio.Future] = {}
        self._next_request_id = 1
        #: (peer address, request id) -> (expiry deadline ms, reply
        #: frame), so a UDP retransmission of an already-served request
        #: re-sends the same reply instead of re-running the handler.
        #: LRU-ordered (recently replayed entries migrate to the tail)
        #: and bounded by both capacity and TTL.
        self._served: OrderedDict[
            tuple[Address, int], tuple[float, bytes]
        ] = OrderedDict()
        self._served_cap = dedupe_cap
        self._served_ttl_ms = dedupe_ttl_s * 1000.0
        #: Idle TCP connections kept warm per peer address for reuse.
        self._tcp_pool: dict[
            Address, list[tuple[asyncio.StreamReader, asyncio.StreamWriter]]
        ] = {}
        self._tcp_pool_cap = tcp_pool_cap
        #: Live server-side TCP connections (clients hold them open for
        #: reuse), closed with the transport so their handler tasks end.
        self._server_conns: set[asyncio.StreamWriter] = set()
        self.listen_address: Optional[Address] = None

    # -- lifecycle ----------------------------------------------------------

    async def start(
        self, host: Optional[str] = None, port: int = 0
    ) -> Optional[Address]:
        """Bring the sockets up on the running loop.

        With a ``host``, binds a UDP endpoint *and* a TCP server on the
        same port (``port=0`` lets the OS choose; the chosen port is in
        :attr:`listen_address`) -- the daemon mode.  Without a host,
        binds only an ephemeral loopback UDP socket for replies -- the
        client mode (TCP requests use outgoing connections and need no
        server).
        """
        if self._loop is not None:
            raise TransportError("transport already started")
        self._loop = asyncio.get_running_loop()
        self._loop_thread = threading.get_ident()
        if host is None:
            await self._bind_udp("127.0.0.1", 0)
            return None
        self._tcp_server = await asyncio.start_server(
            self._serve_tcp_connection, host=host, port=port
        )
        bound_port = self._tcp_server.sockets[0].getsockname()[1]
        await self._bind_udp(host, bound_port)
        self.listen_address = (host, bound_port)
        return self.listen_address

    async def _bind_udp(self, host: str, port: int) -> None:
        assert self._loop is not None
        self._udp, _ = await self._loop.create_datagram_endpoint(
            lambda: _DatagramEndpoint(self), local_addr=(host, port)
        )

    async def close(self) -> None:
        """Tear the sockets down and fail every in-flight request."""
        if self._udp is not None:
            self._udp.close()
            self._udp = None
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
            self._tcp_server = None
        for pool in self._tcp_pool.values():
            for _, writer in pool:
                writer.close()
        self._tcp_pool.clear()
        for writer in list(self._server_conns):
            writer.close()
        self._server_conns.clear()
        for future in self._pending.values():
            if not future.done():
                future.cancel()
        self._pending.clear()

    # -- endpoint protocol (parity with SimulatedTransport) -----------------

    def register(self, name: str, endpoint: Endpoint) -> None:
        """Attach a local endpoint under a unique name."""
        if name in self._endpoints:
            raise TransportError(f"endpoint already registered: {name!r}")
        self._endpoints[name] = endpoint
        self._ever_registered.add(name)

    def unregister(self, name: str) -> None:
        """Detach a local endpoint."""
        if name not in self._endpoints:
            raise TransportError(f"no such endpoint: {name!r}")
        del self._endpoints[name]

    def is_registered(self, name: str) -> bool:
        """True for local endpoints and routed (remote) names alike."""
        return name in self._endpoints or name in self._routes

    @property
    def endpoint_names(self) -> list[str]:
        """Names of the locally hosted endpoints."""
        return list(self._endpoints)

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

    # -- request path (coroutine core) --------------------------------------

    async def request(self, message: Message) -> Optional[Message]:
        """Send one message and await its reply (None for an ACK).

        Retries timeouts with capped exponential backoff; raises
        :class:`DeliveryError` (``timeout`` after retry exhaustion, or
        the peer-reported reason) for runtime failures and
        :class:`TransportError` for misuse (unroutable name, transport
        not started).
        """
        if self._loop is None:
            raise TransportError("transport not started")
        handler = self._endpoints.get(message.destination)
        if handler is not None:
            return self._deliver_local(handler, message)
        address = self._resolve(message.destination)
        signing = self.identity is not None
        body = encode_message(message, signed=signing)
        self.meter.record(message)
        counters.rpc_requests += 1
        request_id = self._next_request_id
        self._next_request_id += 1
        use_tcp = self._frame_overhead + len(body) > self.udp_max_bytes
        frame_type, reply_body, envelope = await self._exchange(
            request_id, body, address, message.destination, use_tcp
        )
        self._verify_reply(envelope, message.destination)
        if frame_type == FRAME_ERROR:
            reason = decode_error(reply_body)
            if reason == OVERSIZED_REASON:
                # The response did not fit a datagram: repeat the request
                # over TCP (fresh id -- the reply cache must not replay
                # the oversized error) and take the streamed reply.
                counters.rpc_oversized_fallbacks += 1
                retry_id = self._next_request_id
                self._next_request_id += 1
                frame_type, reply_body, envelope = await self._exchange(
                    retry_id, body, address, message.destination, True
                )
                self._verify_reply(envelope, message.destination)
                if frame_type == FRAME_ERROR:
                    raise DeliveryError(
                        decode_error(reply_body), message.destination
                    )
            else:
                raise DeliveryError(reason, message.destination)
        if frame_type == FRAME_ACK:
            return None
        response = decode_message(reply_body, signed=envelope is not None)
        self.meter.record(response)
        counters.rpc_responses += 1
        return response

    def _verify_reply(
        self, envelope: Optional[SignedEnvelope], destination: str
    ) -> None:
        """Check a reply's signature (or its absence) before trusting it.

        A bad signature -- or an unsigned reply under ``require_signed``
        -- surfaces as ``DeliveryError(verify_failed)``: transient and
        ``retry_elsewhere``, so the service fails over to another
        replica exactly as the simulated adversary path does.

        A *valid* signature is then bound to the expected peer: the
        envelope's key must match ``destination``'s pin (seeded via
        ``peer_keys``/``pin_peer``, or learned on first contact).  The
        signature alone proves only that some keypair produced the
        frame; the pin is what stops an impostor substituting its own.
        """
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
                self.tracer.sec_verify_fail(
                    destination=destination, role="unknown"
                )
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
                self.tracer.sec_verify_fail(
                    destination=destination, role="impostor"
                )
            raise DeliveryError(DeliveryError.VERIFY_FAILED, destination)

    @property
    def _frame_overhead(self) -> int:
        """Frame bytes beyond the body: envelope, plus the signed trailer."""
        if self.identity is not None:
            return ENVELOPE_BYTES + SIGNED_TRAILER_BYTES
        return ENVELOPE_BYTES

    def _request_frame(self, request_id: int, body: bytes) -> bytes:
        """An outgoing REQUEST frame, signed when an identity is set."""
        if self.identity is not None:
            return sign_frame(FRAME_REQUEST, request_id, body, self.identity)
        return encode_frame(FRAME_REQUEST, request_id, body)

    def _reply_frame(
        self, frame_type: int, request_id: int, body: bytes = b""
    ) -> bytes:
        """An outgoing reply frame, signed when an identity is set."""
        if self.identity is not None:
            return sign_frame(frame_type, request_id, body, self.identity)
        return encode_frame(frame_type, request_id, body)

    async def request_many(
        self, messages: list[Message]
    ) -> list[object]:
        """Issue several requests concurrently -- the pipelined path.

        Every message's exchange starts immediately (no request/response
        lockstep); the returned list is aligned with ``messages``, each
        item the response :class:`Message`, ``None`` for an ACK, or the
        :class:`DeliveryError` that exchange raised (runtime failures
        are per-item data, so one dead replica cannot abort the batch).
        Misuse (unroutable name, transport not started) still raises.
        """
        counters.rpc_batches += 1
        counters.rpc_batched_messages += len(messages)

        async def one(message: Message) -> object:
            try:
                return await self.request(message)
            except DeliveryError as error:
                return error

        return list(await asyncio.gather(*(one(m) for m in messages)))

    def send_many(self, messages: list[Message]) -> list[object]:
        """Blocking batched request from a non-loop thread.

        The batch is marshalled onto the loop as one unit and every
        exchange runs concurrently; after all of them settle, the first
        :class:`DeliveryError` (if any) is raised -- matching the
        sequential path's failure surface while still attempting every
        message.  Returns the aligned response list otherwise.
        """
        if self._loop is None:
            raise TransportError("transport not started")
        if threading.get_ident() == self._loop_thread:
            raise TransportError(
                "blocking send_many from the event-loop thread; "
                "use request_many"
            )
        if not messages:
            return []
        handle = asyncio.run_coroutine_threadsafe(
            self.request_many(list(messages)), self._loop
        )
        results = handle.result()
        for result in results:
            if isinstance(result, DeliveryError):
                raise result
        return results

    async def _exchange(
        self,
        request_id: int,
        body: bytes,
        address: Address,
        destination: str,
        use_tcp: bool,
    ) -> tuple[int, bytes, Optional[SignedEnvelope]]:
        """One request with its timeout/retry loop; returns the reply."""
        timeout_ms = self.request_timeout_ms
        for attempt in range(self.max_retries + 1):
            if attempt:
                counters.rpc_retries += 1
            try:
                if use_tcp:
                    return await asyncio.wait_for(
                        self._exchange_tcp(request_id, body, address),
                        timeout_ms / 1000.0,
                    )
                return await asyncio.wait_for(
                    self._exchange_udp(request_id, body, address),
                    timeout_ms / 1000.0,
                )
            except asyncio.TimeoutError:
                counters.rpc_timeouts += 1
                timeout_ms = min(timeout_ms * 2.0, self.BACKOFF_CAP_MS)
            except ConnectionRefusedError:
                # The daemon's TCP port is gone: the node departed.
                raise DeliveryError(DeliveryError.UNREGISTERED, destination)
            except OSError:
                counters.rpc_timeouts += 1
                timeout_ms = min(timeout_ms * 2.0, self.BACKOFF_CAP_MS)
            finally:
                self._pending.pop(request_id, None)
        raise DeliveryError(DeliveryError.TIMEOUT, destination)

    async def _exchange_udp(
        self, request_id: int, body: bytes, address: Address
    ) -> tuple[int, bytes, Optional[SignedEnvelope]]:
        assert self._loop is not None and self._udp is not None
        future: asyncio.Future = self._loop.create_future()
        self._pending[request_id] = future
        frame = self._request_frame(request_id, body)
        self._udp.sendto(frame, address)
        counters.rpc_udp_frames += 1
        counters.rpc_bytes_sent += len(frame)
        return await future

    async def _exchange_tcp(
        self, request_id: int, body: bytes, address: Address
    ) -> tuple[int, bytes, Optional[SignedEnvelope]]:
        """One TCP exchange over a pooled (kept-alive) connection.

        Connections park in a per-address pool between exchanges, so a
        covering-chain's oversized fetches pay the handshake once, not
        per request.  A pooled connection the peer closed while idle is
        detected on the first read/write and retried once on a fresh
        connection; a connection whose exchange was abandoned mid-flight
        (timeout cancellation, codec error) is closed, never reused --
        the stream position would be ambiguous.
        """
        frame = self._request_frame(request_id, body)
        payload = encode_stream(frame)
        conn = self._checkout_tcp(address)
        reused = conn is not None
        if conn is None:
            conn = await asyncio.open_connection(*address)
            counters.rpc_tcp_connects += 1
        reply: Optional[bytes] = None
        while True:
            reader, writer = conn
            try:
                writer.write(payload)
                await writer.drain()
                counters.rpc_tcp_frames += 1
                counters.rpc_bytes_sent += len(frame) + STREAM_PREFIX_BYTES
                prefix = await reader.readexactly(STREAM_PREFIX_BYTES)
                reply = await reader.readexactly(
                    int.from_bytes(prefix, "big")
                )
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.IncompleteReadError,
            ):
                writer.close()
                if not reused:
                    raise
                # The parked connection went stale while idle: one retry
                # on a demonstrably fresh connection.
                reused = False
                conn = await asyncio.open_connection(*address)
                counters.rpc_tcp_connects += 1
                continue
            except BaseException:
                # Includes the caller's timeout cancellation: the
                # exchange is mid-flight, the stream cannot be reused.
                writer.close()
                raise
            break
        counters.rpc_bytes_received += len(reply) + STREAM_PREFIX_BYTES
        try:
            frame_type, reply_id, reply_body, envelope = decode_frame_signed(
                reply
            )
            if reply_id != request_id:
                raise CodecError(
                    f"reply correlates to {reply_id}, expected {request_id}"
                )
        except CodecError:
            writer.close()
            raise
        if reused:
            counters.rpc_tcp_reuses += 1
        self._checkin_tcp(address, conn)
        return frame_type, bytes(reply_body), envelope

    def _checkout_tcp(
        self, address: Address
    ) -> Optional[tuple[asyncio.StreamReader, asyncio.StreamWriter]]:
        """An idle pooled connection to ``address``, if one is alive."""
        pool = self._tcp_pool.get(address)
        while pool:
            conn = pool.pop()
            if not conn[1].is_closing():
                return conn
        return None

    def _checkin_tcp(
        self,
        address: Address,
        conn: tuple[asyncio.StreamReader, asyncio.StreamWriter],
    ) -> None:
        """Park a healthy connection for reuse (bounded per address)."""
        if conn[1].is_closing() or self._tcp_pool_cap == 0:
            conn[1].close()
            return
        pool = self._tcp_pool.setdefault(address, [])
        pool.append(conn)
        while len(pool) > self._tcp_pool_cap:
            pool.pop(0)[1].close()

    def _deliver_local(
        self, handler: Endpoint, message: Message
    ) -> Optional[Message]:
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

    # -- blocking / continuation surfaces ------------------------------------

    def send(self, message: Message) -> Optional[Message]:
        """Blocking request from a non-loop thread (engine surface).

        Semantics match ``SimulatedTransport.send``: the response
        message or ``None``, with :class:`DeliveryError` for runtime
        failures.  When a tracer is bound, the request and response legs
        are recorded as ``dht_route_hop`` events -- the response leg
        carries the measured round-trip in ``latency_ms``.
        """
        if self._loop is None:
            raise TransportError("transport not started")
        if threading.get_ident() == self._loop_thread:
            raise TransportError(
                "blocking send from the event-loop thread; use send_async"
            )
        started = self.clock.now
        if self.tracer is not None:
            self._trace_hop(message, "request", 0.0)
        handle = asyncio.run_coroutine_threadsafe(
            self.request(message), self._loop
        )
        response = handle.result()
        if response is not None and self.tracer is not None:
            self._trace_hop(response, "response", self.clock.now - started)
        return response

    def send_async(
        self,
        message: Message,
        on_result: ResponseCallback,
        on_error: ErrorCallback,
    ) -> None:
        """Continuation-passing request (callbacks on the loop thread)."""
        if self._loop is None:
            raise TransportError("transport not started")

        async def run() -> None:
            try:
                result = await self.request(message)
            except DeliveryError as error:
                on_error(error)
            else:
                on_result(result)

        if threading.get_ident() == self._loop_thread:
            self._loop.create_task(run())
        else:
            asyncio.run_coroutine_threadsafe(run(), self._loop)

    def _trace_hop(self, message: Message, leg: str, latency_ms: float) -> None:
        assert self.tracer is not None
        self.tracer.route_hop(
            src=message.source,
            dst=message.destination,
            message=message.kind.value,
            legs=max(1, message.route_hops),
            latency_ms=latency_ms,
            leg=leg,
            use_current=True,
        )

    # -- serving ------------------------------------------------------------

    def _on_datagram(self, data: bytes, addr: Address) -> None:
        counters.rpc_bytes_received += len(data)
        try:
            frame_type, request_id, body, envelope = decode_frame_signed(data)
        except CodecError:
            counters.rpc_codec_errors += 1
            return
        if frame_type == FRAME_REQUEST:
            reply = self._serve_request(
                request_id, body, addr, via_udp=True, envelope=envelope
            )
            if self._udp is not None:
                self._udp.sendto(reply, addr)
                counters.rpc_udp_frames += 1
                counters.rpc_bytes_sent += len(reply)
            return
        future = self._pending.pop(request_id, None)
        if future is not None and not future.done():
            future.set_result((frame_type, bytes(body), envelope))

    def _serve_request(
        self,
        request_id: int,
        body: bytes,
        addr: Address,
        via_udp: bool,
        envelope: Optional[SignedEnvelope] = None,
    ) -> bytes:
        """Handle one incoming REQUEST; returns the reply frame."""
        cache_key = (addr, request_id)
        cached = self._cached_reply(cache_key)
        if cached is not None:
            return cached
        if envelope is not None and not verify_signature(
            envelope.public_key, envelope.signed, envelope.signature
        ):
            # A forged request is refused before the handler runs; the
            # reply is NOT cached (the honest sender may retransmit the
            # authentic frame under the same id).
            counters.sec_verify_failures += 1
            return self._reply_frame(
                FRAME_ERROR,
                request_id,
                encode_error(DeliveryError.VERIFY_FAILED),
            )
        if self.require_signed and envelope is None:
            # Refused, and NOT cached -- like the forged-signature path
            # above.  An unsigned datagram's source address is attacker
            # chosen, so remembering this rejection under
            # ``(addr, request_id)`` would let a spoofer pre-poison the
            # reply slot of an honest peer's next (guessably sequential)
            # request id.
            return self._reply_frame(
                FRAME_ERROR,
                request_id,
                encode_error(DeliveryError.VERIFY_FAILED),
            )
        try:
            message = decode_message(body, signed=envelope is not None)
        except CodecError:
            counters.rpc_codec_errors += 1
            return self._reply_frame(
                FRAME_ERROR, request_id, encode_error("codec")
            )
        handler = self._endpoints.get(message.destination)
        if handler is None:
            # Over the wire every unknown name is a runtime condition
            # (the peer cannot distinguish "never existed" from
            # "departed"), so it maps to the departed reason.
            reply = self._reply_frame(
                FRAME_ERROR,
                request_id,
                encode_error(DeliveryError.UNREGISTERED),
            )
            self._remember_reply(cache_key, reply)
            return reply
        self.meter.record(message)
        response = handler(message)
        if response is None:
            reply = self._reply_frame(FRAME_ACK, request_id)
        else:
            self.meter.record(response)
            response_body = encode_message(
                response, signed=self.identity is not None
            )
            if (
                via_udp
                and self._frame_overhead + len(response_body)
                > self.udp_max_bytes
            ):
                # Do not cache: the sender repeats over TCP with a fresh
                # id and must get the real response there.
                return self._reply_frame(
                    FRAME_ERROR, request_id, encode_error(OVERSIZED_REASON)
                )
            reply = self._reply_frame(FRAME_RESPONSE, request_id, response_body)
        self._remember_reply(cache_key, reply)
        return reply

    def _cached_reply(self, key: tuple[Address, int]) -> Optional[bytes]:
        """The remembered reply for a retransmission, if still fresh."""
        entry = self._served.get(key)
        if entry is None:
            return None
        deadline, reply = entry
        now = self.clock.now
        if now >= deadline:
            del self._served[key]
            return None
        # Replaying refreshes both recency (LRU order) and the TTL: the
        # peer is evidently still retrying this request.
        self._served[key] = (now + self._served_ttl_ms, reply)
        self._served.move_to_end(key)
        return reply

    def _remember_reply(self, key: tuple[Address, int], reply: bytes) -> None:
        now = self.clock.now
        # Expired entries drain from the LRU head as new replies arrive,
        # so an idle-then-busy daemon does not hold stale replies for
        # the whole capacity's worth of new traffic.
        while self._served:
            head_key = next(iter(self._served))
            if self._served[head_key][0] > now:
                break
            del self._served[head_key]
        self._served[key] = (now + self._served_ttl_ms, reply)
        while len(self._served) > self._served_cap:
            self._served.popitem(last=False)

    async def _serve_tcp_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername") or ("?", 0)
        addr: Address = (str(peer[0]), int(peer[1]))
        self._server_conns.add(writer)
        try:
            while True:
                try:
                    prefix = await reader.readexactly(STREAM_PREFIX_BYTES)
                except asyncio.IncompleteReadError:
                    break
                frame = await reader.readexactly(
                    int.from_bytes(prefix, "big")
                )
                counters.rpc_bytes_received += len(frame) + STREAM_PREFIX_BYTES
                try:
                    frame_type, request_id, body, envelope = (
                        decode_frame_signed(frame)
                    )
                except CodecError:
                    counters.rpc_codec_errors += 1
                    break
                if frame_type != FRAME_REQUEST:
                    break
                reply = self._serve_request(
                    request_id, body, addr, via_udp=False, envelope=envelope
                )
                writer.write(encode_stream(reply))
                await writer.drain()
                counters.rpc_tcp_frames += 1
                counters.rpc_bytes_sent += len(reply) + STREAM_PREFIX_BYTES
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._server_conns.discard(writer)
            try:
                writer.close()
            except RuntimeError:
                pass  # loop already closed under a hard teardown
