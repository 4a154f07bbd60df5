"""One index node as a long-running socket daemon.

A :class:`NodeDaemon` hosts a single substrate node -- its DHT routing
state, its slice of the index and file stores, and its shortcut cache --
behind an :class:`~repro.rpc.transport.AsyncioTransport` listening on one
TCP port.  A population of daemons (one process each, or many in one
loop via :class:`repro.rpc.cluster.LocalCluster`) is the networked
counterpart of the simulation's single-process overlay: the same
:class:`~repro.core.service.IndexService` code answers the same
:class:`~repro.net.message.Message` kinds, only now they arrive off the
wire.

Each daemon exposes two endpoints:

- ``node:<id:x>`` -- the index node itself, registered by the service
  (QUERY_REQUEST / FILE_REQUEST / CACHE_INSERT), exactly as in the
  simulation;
- ``daemon@host:port`` -- the *control* endpoint this module adds, which
  carries data placement and membership:

  ========================  =============================================
  message                   effect
  ========================  =============================================
  INDEX_INSERT (s,k,v,...)  store a batch of replicas locally, in order
  CONTROL (ping,)           liveness probe; replies (pong, <id:x>)
  CONTROL (members,)        replies (members, <id:x>@host:port, ...)
  CONTROL (join,id,addr)    admit a node; reply members; notify peers
  CONTROL (joined,id,addr)  peer notification of an admission
  CONTROL (stats,)          index/file entry counts and peer count
  CONTROL (pull,id[,s,k,v]) a page of the entries node ``id`` should hold
  CONTROL (shutdown,)       replies (bye,) and stops the daemon
  ========================  =============================================

An insert batch is a flat run of ``(store, key, value)`` triples, store
``"i"`` (index) or ``"f"`` (file), as a ``pull`` reply carries them.
Placement stays a *sender-side* decision: a publication sends one batch
to each daemon that must hold part of it, applied in order with
:meth:`repro.storage.store.DHTStorage.put_local` (an empty, ragged or
unknown-store batch is refused ``bad-request`` before any write).  Lookups
need no daemon-side logic at all -- they are addressed to the ``node:``
endpoint and served by the unmodified service handlers.

Membership is deliberately minimal (a full-mesh member list seeded
through one bootstrap daemon): enough to run real multi-process
overlays and exercise over-the-wire joins, while the churn/stabilization
machinery stays the simulation's domain.

With ``data_dir`` set, the daemon is *durable*
(:mod:`repro.storage.durable`): every index insert, file replica,
shortcut-cache insert, and membership change is journaled to a
write-ahead log before it is acknowledged, and a restart recovers the
node -- same identity, same entries, same warmed cache, same membership
view -- by replaying its log.  After recovery the daemon rejoins via
its remembered peers and re-synchronizes its slice of the data (paged
``pull`` exchanges with every peer, then one insert batch pushed to each
peer that should hold what it holds), so entries written to its keys
while it was down arrive as well.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from repro.core.cache import CachePolicy
from repro.core.fields import ARTICLE_SCHEMA, Schema
from repro.core.scheme import build_scheme
from repro.core.service import IndexService
from repro.dht import DEFAULT_BITS, DHTProtocol, build_substrate, hash_key
from repro.net.message import Message, MessageKind
from repro.net.transport import DeliveryError, TransportError
from repro.rpc.transport import (
    Address,
    AsyncioTransport,
    daemon_endpoint_name,
)
from repro.sec import NodeIdentity
from repro.storage.durable import DurableNodeState, RecoveryReport
from repro.storage.store import DHTStorage, replay_durable_state

def format_member(node_id: int, address: Address) -> str:
    """Wire form of one membership entry: ``<id:x>@host:port``."""
    return f"{node_id:x}@{address[0]}:{address[1]}"


def parse_member(entry: str) -> tuple[int, Address]:
    """Inverse of :func:`format_member`."""
    id_text, _, location = entry.partition("@")
    host, _, port_text = location.rpartition(":")
    return int(id_text, 16), (host, int(port_text))


def parse_members(response: Optional[Message], peer: Address) -> list[tuple[int, Address]]:
    """The entries of ``peer``'s ``members`` reply; any other answer is a
    :class:`TransportError`."""
    if response is None or response.payload[:1] != ("members",):
        raise TransportError(f"{peer[0]}:{peer[1]} did not answer with members")
    try:
        return [parse_member(entry) for entry in response.payload[1:]]
    except ValueError as error:
        raise TransportError(f"{peer[0]}:{peer[1]} sent a malformed member") from error


class NodeDaemon:
    """One substrate node served over real sockets.

    Construct, then ``await start()`` on the event loop that should own
    the sockets; ``await serve()`` blocks until :meth:`stop` (or an
    over-the-wire shutdown) fires.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        substrate: str = "chord",
        scheme: str = "simple",
        cache: str = "none",
        replication: int = 1,
        bits: int = DEFAULT_BITS,
        node_id: Optional[int] = None,
        schema: Optional[Schema] = None,
        request_timeout_ms: float = AsyncioTransport.REQUEST_TIMEOUT_MS,
        data_dir: Optional[str] = None,
        fsync: str = "interval",
        identity_dir: Optional[str] = None,
        identity: Optional[NodeIdentity] = None,
        require_signed: bool = False,
    ) -> None:
        """``data_dir`` switches the daemon to durable mode: node state
        persists there (one write-ahead log) and a restart recovers it.
        ``fsync`` is the log's sync policy (``always`` / ``interval[:N]``
        / ``never``; see :class:`repro.storage.durable.FsyncPolicy`).

        ``identity_dir`` gives the daemon a persistent ed25519 keypair
        (created on first start, reloaded forever after -- the same
        load-or-create contract as the durable state): frames are
        signed, incoming signed frames verified, and -- absent an
        explicit ``node_id`` or recovered identity -- the node id is
        derived from the public key, so a node cannot choose its ring
        position independently of a key it can sign with.  ``identity``
        passes a ready-made keypair instead (in-process clusters);
        ``require_signed`` additionally rejects unsigned peers."""
        self.host = host
        self.requested_port = port
        self.substrate_name = substrate
        self.scheme_name = scheme
        self.bits = bits
        self.replication = replication
        self.schema = schema if schema is not None else ARTICLE_SCHEMA
        self.cache_policy, self.cache_capacity = CachePolicy.parse(cache)
        self._explicit_node_id = node_id
        self.node_id: int = 0
        if identity_dir is not None and identity is not None:
            raise ValueError("give identity_dir or identity, not both")
        self.identity: Optional[NodeIdentity] = identity
        if identity_dir is not None:
            self.identity = NodeIdentity.load_or_create(identity_dir)
        self.transport = AsyncioTransport(
            request_timeout_ms=request_timeout_ms,
            identity=self.identity,
            require_signed=require_signed,
        )
        #: Known members, self included: node id -> daemon address.
        self.peers: dict[int, Address] = {}
        self.protocol: Optional[DHTProtocol] = None
        self.index_store: Optional[DHTStorage] = None
        self.file_store: Optional[DHTStorage] = None
        self.service: Optional[IndexService] = None
        self.data_dir = data_dir
        self.fsync = fsync
        #: The durability journal (durable mode only; see serve()/kill()).
        self.durable: Optional[DurableNodeState] = None
        #: What the last start() recovered from disk (durable mode only).
        self.recovery: Optional[RecoveryReport] = None
        self._killed = False
        self._stopping = asyncio.Event()

    # -- lifecycle ----------------------------------------------------------

    @property
    def address(self) -> Address:
        """The bound listen address (valid after :meth:`start`)."""
        assert self.transport.listen_address is not None
        return self.transport.listen_address

    @property
    def control_name(self) -> str:
        """This daemon's control endpoint name."""
        return daemon_endpoint_name(*self.address)

    async def start(self, bootstrap: Optional[Address] = None) -> Address:
        """Bind the sockets, build the node, and (optionally) join.

        With a ``bootstrap`` address, membership is fetched over the
        wire from that daemon and the join is broadcast to the overlay;
        without one, this daemon seeds a new single-node overlay.
        Returns the bound address.
        """
        address = await self.transport.start(self.host, self.requested_port)
        assert address is not None
        host, port = address
        if self.data_dir is not None:
            self.durable = DurableNodeState(self.data_dir, fsync=self.fsync)
            self.recovery = self.durable.report
        recovered_id = (
            self.durable.state.node_id if self.durable is not None else None
        )
        # Identity priority: explicit argument, then the recovered
        # identity (a restarted daemon must keep its ring position even
        # on a new ephemeral port), then the keypair-derived id (the
        # ring position is bound to a key the node can sign with), then
        # the address hash.
        if self._explicit_node_id is not None:
            self.node_id = self._explicit_node_id
        elif recovered_id is not None:
            self.node_id = recovered_id
        elif self.identity is not None:
            self.node_id = self.identity.node_id(self.bits)
        else:
            self.node_id = hash_key(f"{host}:{port}", self.bits)
        self.protocol = build_substrate(
            self.substrate_name, [self.node_id], self.bits
        )
        self.index_store = DHTStorage(self.protocol, replication=self.replication)
        self.file_store = DHTStorage(self.protocol, replication=self.replication)
        self.service = IndexService(
            self.schema,
            build_scheme(self.scheme_name, self.schema),
            self.index_store,
            self.file_store,
            self.transport,
            cache_policy=self.cache_policy,
            cache_capacity=self.cache_capacity,
            local_nodes={self.node_id},
        )
        self.peers[self.node_id] = address
        self.transport.register(self.control_name, self._handle_control)
        recovered_peers: list[tuple[int, Address]] = []
        if self.durable is not None:
            recovered_peers = self._restore_durable_state()
        if bootstrap is not None:
            await self._join(bootstrap)
        elif recovered_peers:
            await self._rejoin(recovered_peers)
        if self.durable is not None and len(self.peers) > 1:
            await self._sync_with_peers()
        return address

    def _restore_durable_state(self) -> list[tuple[int, Address]]:
        """Re-apply recovered state to the fresh in-memory node (see
        :func:`repro.storage.store.replay_durable_state`).  Returns the
        remembered peers to try rejoining through.
        """
        assert self.durable is not None
        assert self.index_store is not None and self.file_store is not None
        assert self.service is not None
        replay_durable_state(
            self.durable,
            self.node_id,
            self.index_store,
            self.file_store,
            self.service.caches.get(self.node_id),
        )
        recovered_peers = [
            (node_id, peer_address)
            for node_id, peer_address in sorted(self.durable.state.peers.items())
            if node_id != self.node_id
        ]
        # Journal this life's identity and address (no-ops when they
        # match the recovered state).
        self.index_store.attach_journal(self.durable, "index")
        self.file_store.attach_journal(self.durable, "file")
        self.service.journal = self.durable
        self.durable.record_identity(self.node_id)
        self.durable.record_member(self.node_id, *self.address)
        return recovered_peers

    async def _rejoin(self, recovered_peers: list[tuple[int, Address]]) -> None:
        """Try the remembered peers until one admits us back.

        A peer that moved or is still down is skipped; if every one is
        unreachable the daemon seeds alone (exactly what a real node can
        do after a full-cluster outage) and peers re-merge via their own
        rejoins.
        """
        for _, peer_address in recovered_peers:
            if peer_address == self.address:
                continue
            try:
                await self._join(peer_address)
                return
            except (TransportError, OSError):
                continue

    async def serve(self) -> None:
        """Block until the daemon is asked to stop, then shut down.

        A graceful stop (SIGTERM, the ``shutdown`` verb, :meth:`stop`)
        flushes and fsyncs the write-ahead log *before* the sockets come
        down and before the caller's post-``serve()`` code (the CLI's
        final ``SHUTDOWN`` line) runs -- an acknowledged entry is on
        disk by the time the daemon reports itself gone.  A :meth:`kill`
        skips the flush: that is the SIGKILL path.
        """
        await self._stopping.wait()
        if self.durable is not None:
            if self._killed:
                self.durable.abandon()
            else:
                self.durable.close()
        await self.transport.close()

    def stop(self) -> None:
        """Request a graceful shutdown (idempotent, loop-thread safe)."""
        self._stopping.set()

    def kill(self) -> None:
        """Stop WITHOUT flushing the journal -- in-process SIGKILL.

        The cluster harness uses this to model a daemon that dies
        mid-write: the WAL keeps exactly what the OS already had
        (unbuffered appends), nothing more.  Real-SIGKILL coverage of
        the subprocess daemon lives in the CLI tests.
        """
        self._killed = True
        self._stopping.set()

    async def _join(self, bootstrap: Address) -> None:
        """Fetch membership from the bootstrap daemon and announce us."""
        request = Message(
            kind=MessageKind.CONTROL,
            source=self.control_name,
            destination=daemon_endpoint_name(*bootstrap),
            payload=(
                "join",
                f"{self.node_id:x}",
                f"{self.address[0]}:{self.address[1]}",
            ),
        )
        response = await self.transport.request(request)
        for node_id, address in parse_members(response, bootstrap):
            self._apply_member(node_id, address)

    # -- membership ---------------------------------------------------------

    def _apply_member(self, node_id: int, address: Address) -> None:
        """Admit or re-address one member in the local view (idempotent).

        A known node id announcing a *new* address is a restarted peer
        that came back on a different port: its routes are re-pointed
        (the ring position is unchanged, so no storage moves).
        """
        if node_id == self.node_id:
            return
        assert self.protocol is not None and self.service is not None
        known = self.peers.get(node_id)
        if known == address:
            return
        self.peers[node_id] = address
        if known is None:
            self.protocol.add_node(node_id)
        else:
            self.transport.remove_route(daemon_endpoint_name(*known))
        self.transport.add_route(IndexService.endpoint_name(node_id), address)
        self.transport.add_route(daemon_endpoint_name(*address), address)
        if self.durable is not None:
            self.durable.record_member(node_id, *address)
        # register_nodes is restricted to local_nodes, so this only
        # refreshes bookkeeping -- remote node names stay routed.
        self.service.register_nodes()

    def _members_payload(self) -> tuple[str, ...]:
        return ("members",) + tuple(
            format_member(node_id, address)
            for node_id, address in sorted(self.peers.items())
        )

    def _broadcast_joined(self, node_id: int, address: Address) -> None:
        """Fire-and-forget join notification to every other peer."""
        entry_id, entry_address = node_id, address
        for peer_id, peer_address in list(self.peers.items()):
            if peer_id in (self.node_id, entry_id):
                continue
            notice = Message(
                kind=MessageKind.CONTROL,
                source=self.control_name,
                destination=daemon_endpoint_name(*peer_address),
                payload=(
                    "joined",
                    f"{entry_id:x}",
                    f"{entry_address[0]}:{entry_address[1]}",
                ),
            )
            self.transport.send_async(
                notice, lambda response: None, lambda error: None
            )

    # -- re-replication -----------------------------------------------------

    #: Most ``(store, key, value)`` triples one ``pull`` reply or push
    #: batch carries (the codec allows 65,535 payload entries): a reply
    #: is one page, a push sends the rest in further batches.
    BATCH_LIMIT = 21_000

    @property
    def _stores(self) -> dict[str, DHTStorage]:
        """The two stores by their code in a triple: "i" index, "f" file."""
        assert self.index_store is not None and self.file_store is not None
        return {"i": self.index_store, "f": self.file_store}

    def _held_for(self) -> dict[int, list[str]]:
        """Entries held here, as flat ``(store, key, value)`` triples,
        keyed by each other node responsible for them."""
        held: dict[int, list[str]] = {}
        for code, store in self._stores.items():
            for key, values in store.items_at(self.node_id):
                for replica in store.responsible_nodes(key):
                    if replica != self.node_id:
                        batch = held.setdefault(replica, [])
                        for value in values:
                            batch.extend((code, key, value))
        return held

    def _pull_payload(self, requester: int, *after: str) -> tuple[str, ...]:
        """What a restarted ``requester`` needs to repair the writes it
        missed while down: the ``entries`` tag, then a page of at most
        ``BATCH_LIMIT`` of its triples in ``(store, key)`` order, each
        key's values in stored order, from just past the triple
        ``after`` (a cursor, not an index: an entry removed or moved
        since the last page shifts nothing).  Only the keys the page
        reaches are routed."""
        if after and (len(after) != 3 or after[0] not in self._stores):
            raise ValueError("malformed pull cursor")
        cursor, page = after[:2], []
        for code, store in sorted(self._stores.items()):
            held = dict(store.items_at(self.node_id))
            for key in sorted(held):
                values = held[key]
                if (code, key) < cursor:
                    continue
                if (code, key) == cursor and after[2] in values:
                    values = values[values.index(after[2]) + 1:]
                if requester not in store.responsible_nodes(key):
                    continue
                for value in values:
                    page.extend((code, key, value))
                    if len(page) == 3 * self.BATCH_LIMIT:
                        return ("entries", *page)
        return ("entries", *page)

    def _apply_entries(self, flat: tuple[str, ...]) -> None:
        """Store a run of triples here, in order.  The whole run is
        checked first: a length that is not a multiple of 3 or an unknown
        store code raises ``ValueError`` with nothing applied."""
        stores = self._stores
        if len(flat) % 3 or not stores.keys() >= set(flat[::3]):
            raise ValueError("malformed (store, key, value) run")
        for index in range(0, len(flat), 3):
            stores[flat[index]].put_local(
                self.node_id, flat[index + 1], flat[index + 2]
            )

    async def _sync_with_peers(self) -> None:
        """Repair this node's slice of the data against the peers.

        Two directions: **pull** asks every peer for entries this node
        is responsible for but may have missed (writes acknowledged by
        the other replicas while this daemon was down), page after page
        until a short one or one that ends no further on than the last (a
        peer that ignores the cursor), and **push** re-offers locally
        held entries to the other responsible replicas (repairing peers
        that lost *their* copies), one insert batch per peer.  Both
        directions are idempotent (``put_local`` deduplicates), so
        repeated repair passes converge.
        """
        for peer_id, peer_address in sorted(self.peers.items()):
            after: tuple[str, ...] = ()  # no cursor on page one
            while peer_id != self.node_id:
                request = Message(
                    kind=MessageKind.CONTROL,
                    source=self.control_name,
                    destination=daemon_endpoint_name(*peer_address),
                    payload=("pull", f"{self.node_id:x}", *after),
                )
                try:
                    response = await self.transport.request(request)
                    if response is None or response.payload[:1] != ("entries",):
                        break
                    page = response.payload[1:]
                    self._apply_entries(page)
                except (DeliveryError, TransportError, OSError, ValueError):
                    break
                last = page[-3:]
                # A short page is the last; one ending at or before the
                # cursor came from a peer that ignores it.
                if len(page) < 3 * self.BATCH_LIMIT or last == after or (
                    last[:2] < after[:2]
                ):
                    break
                after = last
        step = 3 * self.BATCH_LIMIT
        for replica, items in sorted(self._held_for().items()):
            for start in range(0, len(items), step):
                offer = Message(
                    kind=MessageKind.INDEX_INSERT,
                    source=self.control_name,
                    destination=daemon_endpoint_name(*self.peers[replica]),
                    payload=tuple(items[start:start + step]),
                )
                try:
                    await self.transport.request(offer)
                except (DeliveryError, TransportError, OSError):
                    break

    # -- control endpoint ---------------------------------------------------

    def _handle_control(self, message: Message) -> Optional[Message]:
        if message.kind is MessageKind.INDEX_INSERT:
            # Raising makes the transport answer bad-request.
            if not message.payload:
                raise ValueError("empty insert batch")
            self._apply_entries(message.payload)
            return None
        if message.kind is not MessageKind.CONTROL or not message.payload:
            return message.reply(MessageKind.CONTROL, ("error", "bad-request"))
        verb, *rest = message.payload
        if verb == "ping":
            return message.reply(
                MessageKind.CONTROL, ("pong", f"{self.node_id:x}")
            )
        if verb == "members":
            return message.reply(MessageKind.CONTROL, self._members_payload())
        if verb == "join":
            node_id, address = parse_member(f"{rest[0]}@{rest[1]}")
            self._broadcast_joined(node_id, address)
            self._apply_member(node_id, address)
            return message.reply(MessageKind.CONTROL, self._members_payload())
        if verb == "joined":
            node_id, address = parse_member(f"{rest[0]}@{rest[1]}")
            self._apply_member(node_id, address)
            return None
        if verb == "stats":
            assert self.index_store is not None and self.file_store is not None
            return message.reply(
                MessageKind.CONTROL,
                (
                    "stats",
                    str(self.index_store.entries_on_node(self.node_id)),
                    str(self.file_store.entries_on_node(self.node_id)),
                    str(len(self.peers)),
                ),
            )
        if verb == "pull":
            requester, *after = rest
            return message.reply(
                MessageKind.CONTROL, self._pull_payload(int(requester, 16), *after)
            )
        if verb == "shutdown":
            loop = asyncio.get_running_loop()
            loop.call_soon(self.stop)
            return message.reply(MessageKind.CONTROL, ("bye",))
        return message.reply(MessageKind.CONTROL, ("error", f"unknown:{verb}"))
