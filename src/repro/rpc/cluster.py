"""Loopback cluster harness: N daemons + a wire client in one loop.

:class:`LocalCluster` spawns ``num_nodes`` :class:`NodeDaemon` instances
on ephemeral loopback ports inside one background asyncio loop --
daemon 0 seeds the overlay, the rest join it over the wire -- and
:class:`ClusterClient` is the user's side: it discovers the membership
with a ``members`` control exchange, builds a local *routing mirror* of
the substrate (routing state only; it stores no data and hosts no
endpoints), and then runs the ordinary
:class:`~repro.core.engine.LookupEngine` against the cluster, every
exchange travelling through real TCP sockets.

The mirror is what makes the client thin: ``responsible_nodes`` answers
placement questions locally (exactly the knowledge a DHT client library
has), while every data operation -- inserts, queries, file fetches,
shortcut creation -- is a message to a daemon.  A publication is one
``INDEX_INSERT`` batch per destination daemon (its control endpoint),
carrying every file and index replica placed there; lookups go straight
to ``node:`` endpoints and reuse the engine's covering-chain walk
unchanged.

Everything runs in-process, so tests and the
``examples/real_cluster.py`` demo get real-socket behaviour with
deterministic membership (seeded node ids) and no orphaned processes.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from typing import TYPE_CHECKING, Optional, Union

from repro.core.cache import CachePolicy
from repro.core.engine import LookupEngine, SearchTrace
from repro.core.fields import ARTICLE_SCHEMA, Record, Schema
from repro.core.query import FieldQuery, RecordKeys
from repro.core.scheme import build_scheme
from repro.core.service import IndexService
from repro.dht import DEFAULT_BITS, build_substrate, hash_key
from repro.net.message import Message, MessageKind
from repro.net.transport import TransportError
from repro.rpc.daemon import NodeDaemon, parse_members
from repro.rpc.transport import (
    Address,
    AsyncioTransport,
    daemon_endpoint_name,
)
from repro.sec import NodeIdentity
from repro.storage.durable import tear_wal
from repro.storage.store import DHTStorage

if TYPE_CHECKING:
    from repro.obs.tracer import Tracer


class ClusterClient:
    """A lookup client speaking to a daemon overlay over real sockets."""

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        bootstrap: Address,
        *,
        substrate: str = "chord",
        scheme: str = "simple",
        cache: str = "none",
        replication: int = 1,
        bits: int = DEFAULT_BITS,
        user: str = "user:0",
        schema: Optional[Schema] = None,
        tracer: Optional["Tracer"] = None,
        request_timeout_ms: float = AsyncioTransport.REQUEST_TIMEOUT_MS,
        discover_timeout_ms: float = 2000.0,
        discover_retries: int = 2,
        identity: Optional[NodeIdentity] = None,
        require_signed: bool = False,
        peer_keys: Optional[dict[int, bytes]] = None,
    ) -> None:
        """Connect, discover the membership, and build the mirror.

        ``peer_keys`` maps node ids to their daemons' ed25519 public
        keys (the cluster membership roster): each discovered member's
        endpoint names are *pinned* to its roster key, so a signed reply
        from an impostor keypair is rejected even though its signature
        is internally valid.  Members without a roster entry fall back
        to trust-on-first-use pinning inside the transport.

        Must be called from a thread *other than* the loop's -- the
        client surface is blocking (each call waits for the loop's work).

        ``discover_timeout_ms`` / ``discover_retries`` bound every
        membership discovery: a dead bootstrap raises
        :class:`TransportError` after at most
        ``(discover_retries + 1) * discover_timeout_ms`` instead of
        stalling the caller for the transport's whole request deadline.
        """
        if discover_timeout_ms <= 0:
            raise ValueError("discover_timeout_ms must be positive")
        if discover_retries < 0:
            raise ValueError("discover_retries cannot be negative")
        self._loop = loop
        self.discover_timeout_ms = discover_timeout_ms
        self.discover_retries = discover_retries
        self.schema = schema if schema is not None else ARTICLE_SCHEMA
        self.scheme = build_scheme(scheme, self.schema)
        self.transport = AsyncioTransport(
            request_timeout_ms=request_timeout_ms,
            identity=identity,
            require_signed=require_signed,
        )
        asyncio.run_coroutine_threadsafe(self.transport.start(), loop).result()
        if tracer is not None:
            tracer.bind_clock(self.transport.clock)
            self.transport.bind_tracer(tracer)
        #: The membership roster: node id -> daemon public key.
        self.roster = dict(peer_keys or {})
        #: Discovered membership: node id -> daemon address.
        try:
            self.members = self._discover(bootstrap)
            if not self.members:
                raise TransportError("bootstrap daemon reported no members")
            self._route_members()
        except BaseException:
            # Failed construction must not leak the client socket.
            asyncio.run_coroutine_threadsafe(
                self.transport.close(), loop
            ).result()
            raise
        protocol = build_substrate(
            substrate, sorted(self.members), bits=bits
        )
        self.index_store = DHTStorage(protocol, replication=replication)
        self.file_store = DHTStorage(protocol, replication=replication)
        cache_policy, cache_capacity = CachePolicy.parse(cache)
        # local_nodes=() -> the client hosts no node endpoints: the
        # mirror answers placement only, data lives in the daemons.
        # The cache policy matters client-side too: it decides whether
        # successful lookups send CACHE_INSERT shortcuts to the daemons.
        self.service = IndexService(
            self.schema,
            self.scheme,
            self.index_store,
            self.file_store,
            self.transport,
            cache_policy=cache_policy,
            cache_capacity=cache_capacity,
            local_nodes=(),
        )
        self.engine = LookupEngine(self.service, user=user, tracer=tracer)

    def _discover(self, bootstrap: Address) -> dict[int, Address]:
        """Fetch the membership, under an explicit retry/timeout budget.

        Each attempt gets ``discover_timeout_ms`` wall-clock (shorter
        than the transport's request deadline, which would otherwise
        stretch a dead bootstrap into multiple seconds), and at most
        ``discover_retries`` re-attempts follow before the bounded
        :class:`TransportError` surfaces to the caller.
        """
        request = Message(
            kind=MessageKind.CONTROL,
            source="client",
            destination=daemon_endpoint_name(*bootstrap),
            payload=("members",),
        )
        last_error: Optional[Exception] = None
        for _ in range(self.discover_retries + 1):
            handle = asyncio.run_coroutine_threadsafe(
                asyncio.wait_for(
                    self.transport.request(request),
                    self.discover_timeout_ms / 1000.0,
                ),
                self._loop,
            )
            try:
                response = handle.result()
            except (asyncio.TimeoutError, TransportError, OSError) as error:
                last_error = error
                continue
            return dict(parse_members(response, bootstrap))
        raise TransportError(
            f"bootstrap {bootstrap[0]}:{bootstrap[1]} did not answer "
            f"discovery within {self.discover_retries + 1} attempts of "
            f"{self.discover_timeout_ms:.0f}ms each"
        ) from last_error

    # -- data plane ---------------------------------------------------------

    def _daemon_name(self, node_id: int) -> str:
        return daemon_endpoint_name(*self.members[node_id])

    def insert_messages(self, record: Union[Record, RecordKeys]) -> list[Message]:
        """The wire messages one record's publication fans out into.

        One ``INDEX_INSERT`` batch per destination daemon: a flat run of
        ``(store, key, value)`` triples, an ``"f"`` triple for each file
        replica and an ``"i"`` triple for each index replica of each
        scheme mapping -- :meth:`IndexService.placements`, the triples the
        simulator stores, in its order, grouped by the daemon that must
        hold them.  Callers choose how to deliver the batches (lockstep,
        concurrent, or async).  Takes the record's :class:`RecordKeys`
        when already built.
        """
        batches: dict[int, list[str]] = {}
        placed = self.service.placements((record,), self.scheme)
        for code, key, value, _, nodes in placed:
            for node in nodes:
                batches.setdefault(node, []).extend((code, key, value))
        return [
            Message(
                kind=MessageKind.INDEX_INSERT,
                source=self.engine.user,
                destination=self._daemon_name(node),
                payload=tuple(items),
            )
            for node, items in batches.items()
        ]

    def insert_record(self, record: Record) -> FieldQuery:
        """Publish a record into the cluster; returns its MSD.

        The batches of :meth:`insert_messages` go as one concurrent round:
        one round-trip time and one frame per destination daemon (1.2-1.3x
        the inserts/s of lockstep sends on 3 daemons,
        benchmarks/test_rpc_throughput.py).
        """
        keys = RecordKeys(record)
        self.transport.send_many(self.insert_messages(keys))
        return keys.msd()

    def search(self, query: FieldQuery, target: Record) -> SearchTrace:
        """Covering-chain lookup over the wire (see LookupEngine.search).

        The lookup runs on the loop thread, each exchange chained to the
        last one's reply (:meth:`LookupEngine.start_async`, as in
        ``repro.loadgen``); this thread crosses over once to start it
        and is woken once, with the trace or with what was raised there.
        """
        return self.transport.run_blocking(
            lambda done: self.engine.start_async(
                query, target, self.transport, done.set_result
            )
        )

    def ping(self, node_id: int) -> bool:
        """Probe one daemon's control endpoint."""
        response = self.transport.send(
            Message(
                kind=MessageKind.CONTROL,
                source=self.engine.user,
                destination=self._daemon_name(node_id),
                payload=("ping",),
            )
        )
        return response is not None and response.payload[0] == "pong"

    def shutdown_daemon(self, node_id: int) -> None:
        """Ask one daemon to stop (used by the CLI demo and tests)."""
        self.transport.send(
            Message(
                kind=MessageKind.CONTROL,
                source=self.engine.user,
                destination=self._daemon_name(node_id),
                payload=("shutdown",),
            )
        )

    def refresh_members(self, bootstrap: Address) -> None:
        """Re-discover membership and re-point the routes.

        Needed after a daemon restarts on a new port: its node id keeps
        its ring position (so the placement mirror is unchanged), but
        the routes to its endpoints must follow the new address.
        Discovery runs under the same retry/timeout budget as the
        constructor -- and only a *successful* discovery swaps the
        routes, so a dead bootstrap leaves the client's existing view
        intact instead of routeless.
        """
        discovered = self._discover(bootstrap)
        for node_id, address in self.members.items():
            self.transport.remove_route(IndexService.endpoint_name(node_id))
            self.transport.remove_route(daemon_endpoint_name(*address))
        self.members = discovered
        self._route_members()

    def _route_members(self) -> None:
        """Route every member's two endpoint names, and pin both to the
        member's roster key -- a restarted daemon's new control name too.
        A conflict (a TOFU pin learned during discovery disagreeing with
        the roster) raises: the bootstrap answered with a non-member key."""
        for node_id, address in self.members.items():
            key = self.roster.get(node_id)
            for name in (
                IndexService.endpoint_name(node_id),
                daemon_endpoint_name(*address),
            ):
                self.transport.add_route(name, address)
                if key is not None:
                    self.transport.pin_peer(name, key)

    def close(self) -> None:
        """Release the client's socket."""
        asyncio.run_coroutine_threadsafe(
            self.transport.close(), self._loop
        ).result()


class LocalCluster:
    """N node daemons on loopback ports inside one background loop.

    Usable as a context manager::

        with LocalCluster(5, substrate="chord") as cluster:
            client = cluster.client()
            client.insert_record(record)
            trace = client.search(query, record)

    Node ids are seeded deterministically (``cluster-node-<i>``), so the
    overlay layout -- hence replica placement and covering chains -- is
    reproducible across runs; only socket ports and wall-clock latencies
    vary.
    """

    def __init__(
        self,
        num_nodes: int,
        *,
        substrate: str = "chord",
        scheme: str = "simple",
        cache: str = "none",
        replication: int = 1,
        bits: int = DEFAULT_BITS,
        host: str = "127.0.0.1",
        request_timeout_ms: float = AsyncioTransport.REQUEST_TIMEOUT_MS,
        data_root: Optional[str] = None,
        fsync: str = "interval",
        signed: bool = False,
    ) -> None:
        """``data_root`` makes the cluster durable: each daemon gets a
        data dir under it (keyed by daemon index, stable across
        restarts), enabling :meth:`kill_node` / :meth:`restart_node`
        crash-recovery cycles.  ``fsync`` is each WAL's sync policy.

        ``signed`` gives every daemon a deterministic ed25519 identity
        and makes the whole cluster require signed frames: each daemon
        signs its traffic and rejects unsigned requests, and
        :meth:`client` hands out signing clients by default.  Node ids
        stay the seeded ``cluster-node-<i>`` values (identities sign;
        they do not re-place the ring), so replica placement is
        identical to an unsigned cluster.
        """
        if num_nodes < 1:
            raise ValueError("a cluster needs at least one node")
        self.num_nodes = num_nodes
        self.substrate = substrate
        self.scheme = scheme
        self.cache = cache
        self.replication = replication
        self.bits = bits
        self.host = host
        self.request_timeout_ms = request_timeout_ms
        self.data_root = data_root
        self.fsync = fsync
        self.signed = signed
        self.daemons: list[NodeDaemon] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._serving: list = []
        self._dead: set[int] = set()

    @property
    def node_ids(self) -> list[int]:
        """Deterministic node ids, one per daemon index."""
        ids = sorted(
            {
                hash_key(f"cluster-node-{i}", self.bits)
                for i in range(self.num_nodes)
            }
        )
        if len(ids) != self.num_nodes:
            raise RuntimeError("node id collision; increase bits")
        return ids

    def start(self, converge_timeout_s: float = 15.0) -> "LocalCluster":
        """Boot every daemon and wait for full membership convergence."""
        if self._loop is not None:
            raise RuntimeError("cluster already started")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="local-cluster", daemon=True
        )
        self._thread.start()
        bootstrap: Optional[Address] = None
        for index, node_id in enumerate(self.node_ids):
            daemon = self._build_daemon(index, node_id)
            asyncio.run_coroutine_threadsafe(
                daemon.start(bootstrap), self._loop
            ).result()
            self._serving.append(
                asyncio.run_coroutine_threadsafe(daemon.serve(), self._loop)
            )
            self.daemons.append(daemon)
            if bootstrap is None:
                bootstrap = daemon.address
        deadline = time.monotonic() + converge_timeout_s
        while any(len(d.peers) < self.num_nodes for d in self.daemons):
            if time.monotonic() > deadline:
                raise RuntimeError("cluster membership did not converge")
            time.sleep(0.01)
        return self

    def _build_daemon(self, index: int, node_id: int) -> NodeDaemon:
        data_dir = None
        if self.data_root is not None:
            # Keyed by daemon index, NOT by port: a restarted daemon
            # must find the same directory on its new ephemeral port.
            data_dir = os.path.join(self.data_root, f"daemon-{index}")
        identity = None
        if self.signed:
            # Keyed by daemon index too: a restarted daemon keeps its
            # keypair, so peers' cached pubkey expectations stay valid.
            identity = NodeIdentity(f"cluster-identity-{index}")
        return NodeDaemon(
            self.host,
            0,
            substrate=self.substrate,
            scheme=self.scheme,
            cache=self.cache,
            replication=self.replication,
            bits=self.bits,
            node_id=node_id,
            request_timeout_ms=self.request_timeout_ms,
            data_dir=data_dir,
            fsync=self.fsync,
            identity=identity,
            require_signed=self.signed,
        )

    # -- restart / power-loss chaos ------------------------------------------

    def kill_node(self, index: int, power_loss: bool = False) -> None:
        """SIGKILL one daemon: no WAL flush, no goodbye to the peers.

        The daemon's sockets drop and its journal is abandoned exactly
        as the OS would leave them -- everything appended is still in
        the (real) OS, because WAL appends are unbuffered writes.  With
        ``power_loss``, the unsynced tail of the WAL is additionally
        torn mid-record, simulating the machine (not just the process)
        dying; recovery must then truncate the torn tail.
        """
        assert self._loop is not None
        daemon = self.daemons[index]
        if index in self._dead:
            raise RuntimeError(f"daemon {index} is already dead")
        self._loop.call_soon_threadsafe(daemon.kill)
        self._serving[index].result(timeout=10.0)
        # The fsync line is read only now: serve() abandoned the journal
        # on the loop, so no append can land between this read and the tear.
        if power_loss and daemon.durable is not None:
            tear_wal(daemon.durable.wal_path, daemon.durable.wal.synced_size)
        self._dead.add(index)

    def restart_node(self, index: int, converge_timeout_s: float = 15.0) -> NodeDaemon:
        """Bring a killed daemon back from its data directory.

        The new daemon recovers its identity, entries, cache, and
        membership from its write-ahead log, rejoins through a live peer
        (falling back to its remembered peers), re-syncs its data slice,
        and replaces the dead daemon in the harness.  Blocks until the
        recovered daemon is serving and the membership re-converged.
        """
        assert self._loop is not None
        if index not in self._dead:
            raise RuntimeError(f"daemon {index} is not dead; kill it first")
        node_id = self.daemons[index].node_id
        daemon = self._build_daemon(index, node_id)
        bootstrap = next(
            (
                d.address
                for i, d in enumerate(self.daemons)
                if i != index and i not in self._dead
            ),
            None,
        )
        asyncio.run_coroutine_threadsafe(
            daemon.start(bootstrap), self._loop
        ).result(timeout=30.0)
        self._serving[index] = asyncio.run_coroutine_threadsafe(
            daemon.serve(), self._loop
        )
        self.daemons[index] = daemon
        self._dead.discard(index)
        live = [d for i, d in enumerate(self.daemons) if i not in self._dead]
        deadline = time.monotonic() + converge_timeout_s
        while any(len(d.peers) < len(live) for d in live):
            if time.monotonic() > deadline:
                raise RuntimeError("membership did not re-converge")
            time.sleep(0.01)
        return daemon

    def client(self, **overrides) -> ClusterClient:
        """A wire client bootstrapped off daemon 0."""
        assert self._loop is not None and self.daemons
        options = dict(
            substrate=self.substrate,
            scheme=self.scheme,
            cache=self.cache,
            replication=self.replication,
            bits=self.bits,
            request_timeout_ms=self.request_timeout_ms,
        )
        if self.signed:
            options["identity"] = NodeIdentity("cluster-client")
            options["require_signed"] = True
            # Membership roster: pin each daemon's endpoint names to its
            # (deterministic, restart-stable) identity key.
            options["peer_keys"] = {
                daemon.node_id: daemon.identity.public_key
                for daemon in self.daemons
                if daemon.identity is not None
            }
        options.update(overrides)
        return ClusterClient(self._loop, self.daemons[0].address, **options)

    def stop(self) -> None:
        """Stop every daemon, then tear the loop down (idempotent)."""
        if self._loop is None:
            return
        for daemon in self.daemons:
            self._loop.call_soon_threadsafe(daemon.stop)
        for handle in self._serving:
            handle.result(timeout=10.0)
        self._loop.call_soon_threadsafe(self._loop.stop)
        assert self._thread is not None
        self._thread.join(timeout=10.0)
        self._loop.close()
        self._loop = None
        self._thread = None
        self._serving = []
        self._dead = set()

    def __enter__(self) -> "LocalCluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
