"""Replicated multi-entry storage over a DHT substrate.

:class:`DHTStorage` maps textual keys (canonical query strings) to lists of
textual values.  The node responsible for a key is resolved through the
substrate's ``lookup``; with ``replication > 1`` each key is also stored on
the next ``replication - 1`` closest nodes, in the style of DHash/PAST.

The layer supports:

- multiple values per key (``put`` appends; ``get`` returns them all),
  which the paper's index model requires;
- deletion of single values or whole keys, with replica cleanup
  (read/write semantics of Section IV-C);
- membership changes: after nodes join or leave, the incremental
  :meth:`repair` pass walks the arcs of the ring those changes moved,
  copies each key there to the responsible nodes that lack it (the block
  transfer CFS performs on join) and purges the copies held by departed
  or no-longer-responsible nodes (Section III-A); it is free otherwise;
- transient failures: reads fail over past crashed replicas
  (``protocol.is_alive``), counting the wasted probes;
- per-node occupancy statistics (keys per node), which Section V-F
  reports (e.g. "an average of 155 keys per node for simple").
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.dht.base import DHTProtocol, NodeId
from repro.dht.idspace import hash_key
from repro.perf import counters

if TYPE_CHECKING:
    from repro.core.cache import NodeCache
    from repro.obs.tracer import Tracer
    from repro.storage.durable import DurableNodeState, NodeWalSet

    StorageJournal = DurableNodeState | NodeWalSet


class StorageError(KeyError):
    """Raised when a key or value is not present where required."""


@dataclass(frozen=True)
class PutResult:
    """Where a value was stored and what it cost to place it."""

    key: str
    numeric_key: int
    nodes: tuple[NodeId, ...]
    hops: int


@dataclass(frozen=True)
class GetResult:
    """Values found for a key and the node that served them."""

    key: str
    numeric_key: int
    node: Optional[NodeId]
    values: tuple[str, ...]
    hops: int

    @property
    def found(self) -> bool:
        return bool(self.values)


@dataclass(frozen=True)
class RepairReport:
    """What one incremental :meth:`DHTStorage.repair` pass did.

    ``keys_repaired`` counts keys copied to at least one node that
    lacked them; ``copies_created`` counts the individual new replicas;
    ``bytes_copied`` is the key+value text shipped (the repair-traffic
    overhead the availability report quotes); ``keys_pruned`` counts
    stale copies dropped from departed or no-longer-responsible nodes.
    """

    keys_repaired: int = 0
    copies_created: int = 0
    bytes_copied: int = 0
    keys_pruned: int = 0


class DHTStorage:
    """Key -> list-of-values storage with replication over a substrate."""

    def __init__(
        self,
        protocol: DHTProtocol,
        replication: int = 1,
        hash_function: Optional[Callable[[str], int]] = None,
    ) -> None:
        if replication < 1:
            raise ValueError("replication factor must be >= 1")
        self.protocol = protocol
        self.replication = replication
        self._hash = hash_function or (lambda text: hash_key(text, protocol.bits))
        # Optional observability hook (see repro.obs): None = untraced.
        self.tracer: Optional["Tracer"] = None
        # Optional durability hook (see repro.storage.durable): every
        # replica placement, deletion, and repair copy is journaled to a
        # write-ahead log before this layer acknowledges it.  None =
        # fully in-memory (the default; zero overhead).
        self._journal: Optional["StorageJournal"] = None
        self._journal_store = "index"
        # Node-local stores: what each peer physically holds.
        self._node_stores: dict[NodeId, dict[str, list[str]]] = {}
        # Authoritative catalog used for rebalancing after churn, and
        # h(key) of its keys (hashed once: by the write path, or by the
        # first repair).
        self._catalog: dict[str, list[str]] = {}
        self._numeric: dict[str, int] = {}
        self._bytes = 0  # text of every copy, kept as copies come and go
        # What marks work for the next pass (see ``repair``): the change log
        # from here on, out-of-step nodes, keys to revisit wherever they hash.
        self._log_read = protocol.membership_version
        self._unsettled: set[NodeId] = set()
        self._loose: set[str] = set()

    def attach_journal(
        self, journal: "StorageJournal", store_label: str = "index"
    ) -> None:
        """Journal every mutation to ``journal`` under ``store_label``.

        ``store_label`` ("index" or "file") distinguishes this storage
        instance's records inside a shared write-ahead log.  The journal
        is written *before* an operation is acknowledged, so an entry
        that a caller saw succeed survives a crash.
        """
        from repro.storage.durable import STORE_CODES

        if store_label not in STORE_CODES:
            raise ValueError(f"unknown store label: {store_label!r}")
        self._journal = journal
        self._journal_store = store_label

    # -- placement -----------------------------------------------------------

    def numeric_key(self, key: str) -> int:
        """The m-bit numeric key ``h(key)`` used by the substrate."""
        numeric = self._numeric.get(key)
        return self._hash(key) if numeric is None else numeric

    def responsible_nodes(self, key: str) -> list[NodeId]:
        """The ``replication`` nodes that should hold ``key`` right now."""
        return self._replicas_of(self.protocol.lookup(self.numeric_key(key)).node)

    def _replicas_of(self, primary: NodeId) -> list[NodeId]:
        """The replica set of every key whose primary is ``primary``."""
        if self.replication == 1:
            return [primary]
        # Take the next closest nodes in identifier order after the
        # primary (successor-list placement, as in DHash/PAST).
        return self.protocol.successors(primary, self.replication)

    def placement(self) -> Callable[[str], tuple[int, list[NodeId]]]:
        """Where keys go, for one batch of writes while the membership
        stands still: ``(h(key), nodes)``, each distinct key routed once,
        to its primary's one replica list (no container per key).  It
        records nothing: only a write keeps ``h(key)``."""
        replicas: dict[NodeId, list[NodeId]] = {}
        placed: dict[str, list[NodeId]] = {}
        lookup, numeric_key = self.protocol.lookup, self.numeric_key

        def place(key: str) -> tuple[int, list[NodeId]]:
            numeric = numeric_key(key)  # a hit once a write has kept it
            nodes = placed.get(key)
            if nodes is None:
                primary = lookup(numeric).node
                if primary not in replicas:
                    replicas[primary] = self._replicas_of(primary)
                nodes = placed[key] = replicas[primary]
            return numeric, nodes

        return place

    # -- operations ------------------------------------------------------------

    def put(self, key: str, value: str) -> PutResult:
        """Store ``value`` under ``key`` on the responsible nodes.

        Multiple distinct values accumulate under one key.  Storing a value
        already present is a no-op.
        """
        numeric = self.numeric_key(key)
        result = self.protocol.lookup(numeric)
        nodes = self._replicas_of(result.node)
        self.store_at(nodes, key, value, numeric)
        return PutResult(
            key=key, numeric_key=numeric, nodes=tuple(nodes), hops=result.hops
        )

    def store_at(
        self,
        nodes: Iterable[NodeId],
        key: str,
        value: str,
        numeric: Optional[int] = None,
    ) -> int:
        """Store ``value`` under ``key`` on ``nodes`` and catalogue it, with
        ``numeric`` as its ``h(key)`` when given: the one write path.
        Journals and counts each new copy; returns them."""
        if numeric is not None:
            self._numeric[key] = numeric
        stores, journal, added = self._node_stores, self._journal, 0
        for node in nodes:
            store = stores.get(node) or stores.setdefault(node, {})
            bucket = store.get(key)
            if bucket is None:
                store[key] = [value]
            elif value in bucket:
                continue
            else:
                bucket.append(value)
            added += 1
            if journal is not None:
                journal.record_put(node, self._journal_store, key, value)
        if added:
            self._bytes += added * (_utf8(key) + _utf8(value))
        catalog_bucket = self._catalog.get(key)
        if catalog_bucket is None:
            self._catalog[key] = [value]
        elif value not in catalog_bucket:
            catalog_bucket.append(value)
        return added

    def put_local(self, node: NodeId, key: str, value: str) -> int:
        """Store one replica of ``value`` under ``key`` on ``node`` only.

        This is the wire-facing write: a networked daemon owns exactly one
        node's physical store, and each replica placement arrives in a
        message, so the placement decision (``responsible_nodes``) is
        made by the *sender*, not here.  The catalog still learns the key
        so local reads (``values``, ``__contains__``) and statistics stay
        truthful for the daemon's slice of the data.  Returns 1 if the
        copy is new, else 0.
        """
        self._unsettled.add(node)  # written outside placement: repair looks
        return self.store_at((node,), key, value)

    def get(self, key: str) -> GetResult:
        """Fetch every value stored under ``key``.

        Tries the primary responsible node first, then the replicas, so
        reads survive the loss of up to ``replication - 1`` nodes (until
        the next :meth:`repair`).  A crashed replica
        (``protocol.is_alive`` false) cannot serve: it is skipped -- the
        failover still costs a wasted probe hop and is counted in
        ``storage_failovers`` -- and the read proceeds to the next copy.
        """
        numeric = self.numeric_key(key)
        result = self.protocol.lookup(numeric)
        hops = result.hops
        failovers = 0
        for node in self._replicas_of(result.node):
            if not self.protocol.is_alive(node):
                counters.storage_failovers += 1
                failovers += 1
                if self.tracer is not None:
                    self.tracer.failover(
                        key=key, node=node, attempt=failovers,
                        level="storage", use_current=True,
                    )
                hops += 1
                continue
            values = self._node_stores.get(node, {}).get(key)
            if values:
                return GetResult(
                    key=key,
                    numeric_key=numeric,
                    node=node,
                    values=tuple(values),
                    hops=hops,
                )
            hops += 1
        return GetResult(
            key=key, numeric_key=numeric, node=None, values=(), hops=hops
        )

    def remove_value(self, key: str, value: str) -> None:
        """Delete one value from a key everywhere; drop empty keys."""
        if key not in self._catalog or value not in self._catalog[key]:
            raise StorageError(f"value not stored under key {key!r}")
        self._catalog[key].remove(value)
        if not self._catalog[key]:
            del self._catalog[key]
            self._numeric.pop(key, None)
        for node, store in self._node_stores.items():
            bucket = store.get(key)
            if bucket and value in bucket:
                bucket.remove(value)
                self._bytes -= _utf8(key) + _utf8(value)
                if not bucket:
                    del store[key]
                if self._journal is not None:
                    self._journal.record_remove_value(
                        node, self._journal_store, key, value
                    )

    def remove_key(self, key: str) -> None:
        """Delete a key and all its values everywhere."""
        if key not in self._catalog:
            raise StorageError(f"key not stored: {key!r}")
        del self._catalog[key]
        self._numeric.pop(key, None)
        for node, store in self._node_stores.items():
            bucket = store.pop(key, None)
            if bucket is not None:
                self._bytes -= _bucket_bytes(key, bucket)
                if self._journal is not None:
                    self._journal.record_remove_key(node, self._journal_store, key)

    def __contains__(self, key: str) -> bool:
        return key in self._catalog

    def values(self, key: str) -> tuple[str, ...]:
        """Authoritative values for a key (catalog view)."""
        return tuple(self._catalog.get(key, ()))

    def values_at(self, node: NodeId, key: str) -> tuple[str, ...]:
        """Values physically held by one node for a key.

        This is what the node itself can answer from local state -- the
        view a message handler must use (a departed or not-yet-rebalanced
        node does not see the global catalog).
        """
        return tuple(self._node_stores.get(node, {}).get(key, ()))

    def items_at(self, node: NodeId) -> list[tuple[str, tuple[str, ...]]]:
        """Every (key, values) pair physically held by one node.

        The iteration surface a daemon needs to answer a peer's
        re-replication ``pull``: strictly node-local state, like
        :meth:`values_at`.
        """
        return [
            (key, tuple(values))
            for key, values in self._node_stores.get(node, {}).items()
        ]

    # -- churn ----------------------------------------------------------------

    def drop_node(self, node: NodeId) -> int:
        """Discard a departed node's physical store (its copies are gone).

        Returns the number of keys the node was holding.  Call on node
        departure: :meth:`repair` also purges departed holders, but until
        then the orphaned entries would count toward storage statistics.
        """
        if self._journal is not None and node in self._node_stores:
            self._journal.record_drop_node(node)
        return self.forget_node(node)

    def forget_node(self, node: NodeId) -> int:
        """Wipe a node's in-memory store WITHOUT touching its journal.

        Power-cycle semantics: a killed durable node loses its RAM, its
        write-ahead log survives for replay (:meth:`drop_node` is a
        *departure*: copies and journal both go).  Returns the number of
        keys wiped; the next :meth:`repair` revisits the node and them.
        """
        store = self._node_stores.pop(node, {})
        self._bytes -= sum(_bucket_bytes(*item) for item in store.items())
        self._unsettled.add(node)
        self._loose.update(store)
        return len(store)

    def replay_entries(
        self, node: NodeId, entries: list[tuple[str, str]]
    ) -> int:
        """Re-apply recovered (key, value) entries to ``node``'s store.

        The recovery path: entries come *from* the node's journal, so
        they are applied with journaling suppressed -- re-logging them
        would double the WAL on every restart.  Idempotent (``put_local``
        deduplicates), which is what makes repeated restarts safe.
        Returns the number of entries actually (re)added.
        """
        journal, self._journal = self._journal, None
        try:
            return sum(self.put_local(node, key, value) for key, value in entries)
        finally:
            self._journal = journal

    def repair(self) -> RepairReport:
        """Incrementally re-replicate under-replicated keys after churn.

        Repair only touches the delta.  What marks a key: a join or leave
        in the unread tail of the protocol's change log, or an *unsettled*
        node (a replica a pass met crashed, a wiped store, a ``put_local``
        target), whose arc of the ring it hashes into
        (``DHTProtocol.moved_by``), or a wiped or unsettled store that held
        it.  Nothing marked: the pass returns without touching the
        catalogue.  Else one walk: purge departed holders, copy each
        marked key to the live responsible nodes that lack it, prune the
        copies nodes near a change are no longer responsible for.
        Crashed nodes cannot receive repair traffic; their copies are
        restored once they recover and a later pass runs.  The bytes
        shipped are counted (``storage_repair_bytes``) so the repair
        overhead of a chaos run is measured, not estimated.
        """
        protocol, read = self.protocol, self._log_read
        if not (read < protocol.membership_version or self._unsettled or self._loose):
            return RepairReport()
        keys_pruned = 0
        for node in list(self._node_stores):
            if node not in protocol:
                keys_pruned += self.drop_node(node)
        loose, self._loose = self._loose, set()
        for node in self._unsettled:
            loose.update(self._node_stores.get(node, ()))
        changed = [*protocol.membership_log[read:], *self._unsettled]
        self._log_read, self._unsettled = protocol.membership_version, set()
        hashed = self._numeric
        if len(hashed) < len(self._catalog):
            # Stored by put_local alone: hashed here, once.
            for key in self._catalog.keys() - hashed.keys():
                hashed[key] = self._hash(key)
        # The walk's two inputs: the candidates, in catalogue order, and
        # the nodes whose stores are scanned for stale copies.
        bounds, scan = protocol.moved_by(changed, self.replication)
        candidates = [
            key
            for key in self._catalog
            if bisect_left(bounds, hashed[key]) & 1 or key in loose
        ]
        keys_repaired = copies_created = bytes_copied = 0
        # Per primary met on this pass: its replica set, and the live
        # replicas with their stores.  A key only picks its primary.
        placed: dict[NodeId, tuple[set[NodeId], list]] = {}
        placements: dict[str, set[NodeId]] = {}
        for key in candidates:
            stored_values = self._catalog[key]
            primary = protocol.lookup(hashed[key]).node
            placement = placed.get(primary)
            if placement is None:
                targets = self._replicas_of(primary)
                live = [node for node in targets if protocol.is_alive(node)]
                # A crashed replica that missed a copy is owed it: the
                # store remembers the node, the next pass pays.
                self._unsettled.update(set(targets).difference(live))
                placement = placed[primary] = (
                    set(targets),
                    [(node, self._node_stores.setdefault(node, {})) for node in live],
                )
            placements[key], live_stores = placement
            repaired_here = False
            for node, store in live_stores:
                held = store.get(key)
                if held is None:
                    store[key] = list(stored_values)
                    copies_created += 1
                    shipped = stored_values
                elif len(held) < len(stored_values):
                    shipped = []
                    for value in stored_values:
                        if value not in held:
                            held.append(value)
                            shipped.append(value)
                else:
                    continue
                repaired_here = True
                key_bytes = _utf8(key)
                for value in shipped:
                    bytes_copied += key_bytes + _utf8(value)
                    if self._journal is not None:
                        self._journal.record_put(
                            node, self._journal_store, key, value
                        )
            if repaired_here:
                keys_repaired += 1
        # Prune copies on live nodes that are no longer responsible for a
        # key (responsibility shifted to a joiner), so occupancy stays
        # truthful.  A key that was no candidate stays where it is.
        for node, store in self._node_stores.items():
            if node not in scan:
                continue
            stale = [
                key for key in store if node not in placements.get(key, (node,))
            ]
            for key in stale:
                self._bytes -= _bucket_bytes(key, store.pop(key))
                if self._journal is not None:
                    self._journal.record_remove_key(
                        node, self._journal_store, key
                    )
            keys_pruned += len(stale)
        self._bytes += bytes_copied
        counters.storage_repair_keys += keys_repaired
        counters.storage_repair_bytes += bytes_copied
        return RepairReport(keys_repaired, copies_created, bytes_copied, keys_pruned)

    def under_replicated_keys(self) -> list[str]:
        """Keys currently held by fewer live nodes than required.

        A diagnostic for churn experiments: after :meth:`repair` (with
        all responsible nodes alive) this must be empty.
        """
        missing: list[str] = []
        required = min(self.replication, len(self.protocol))
        for key in self._catalog:
            holders = sum(
                1
                for node in self.responsible_nodes(key)
                if self.protocol.is_alive(node)
                and key in self._node_stores.get(node, {})
            )
            if holders < required:
                missing.append(key)
        return missing

    # -- statistics -------------------------------------------------------------

    def entries_on_node(self, node: NodeId) -> int:
        """Number of (key, value) entries physically held by ``node``."""
        return sum(len(values) for values in self._node_stores.get(node, {}).values())

    def keys_per_node(self) -> dict[NodeId, int]:
        """Occupancy map over all nodes that hold at least one key."""
        return {
            node: len(store) for node, store in self._node_stores.items() if store
        }

    def total_entries(self) -> int:
        """Number of (key, value) entries in the catalog."""
        return sum(len(values) for values in self._catalog.values())

    def storage_bytes(self) -> int:
        """Total bytes of key and value text held across all nodes.

        Replicas count once per copy, matching the paper's "extra storage
        in the system" measure for indexes (Section V-B).  A running
        total: every path that stores or drops a copy keeps it.
        """
        return self._bytes


def _utf8(text: str) -> int:
    """Length of ``text`` in UTF-8 bytes (no encoding for ASCII text)."""
    return len(text) if text.isascii() else len(text.encode("utf-8"))


def _bucket_bytes(key: str, values: list[str]) -> int:
    """Text bytes of one stored bucket: the key once per value."""
    return len(values) * _utf8(key) + sum(map(_utf8, values))


def replay_durable_state(
    durable: "DurableNodeState",
    node: NodeId,
    index_store: DHTStorage,
    file_store: DHTStorage,
    cache: Optional["NodeCache"],
) -> tuple[int, int]:
    """Re-apply one node's recovered journal to its fresh in-memory state.

    The one restart recovery, run by the simulator's restart chaos and
    by a restarting daemon alike.  The entries come *from* the journal
    and must not be re-logged: ``replay_entries`` detaches the stores'
    journal for the replay and the cache below is filled directly, not
    through the journaling service (that plus idempotent application is
    what keeps repeated restarts from growing the WAL or the stores).
    Index entries, then file entries, then cache shortcuts **in journal
    order**: a bounded (``lruK``) cache that overflowed before the kill
    comes back holding the most recently written shortcuts, as it did
    when the process died.  Returns ``(entries, cache_entries)``
    actually (re)added.
    """
    state = durable.state
    cache_entries = 0
    entries = index_store.replay_entries(node, state.entries("index"))
    entries += file_store.replay_entries(node, state.entries("file"))
    if cache is not None:
        for query_key, msd_keys in state.cache.items():
            for msd_key in msd_keys:
                cache_entries += int(cache.insert(query_key, msd_key))
    return entries, cache_entries
