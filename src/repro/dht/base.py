"""Abstract interface shared by all DHT substrates.

The indexing layer needs exactly one operation from the substrate
(Section III-A of the paper): given a key, find the live node responsible
for it.  Every substrate also supports membership changes and reports the
routing cost (hop count and path) of each lookup, which the storage layer
aggregates and the substrate ablation benchmarks.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

NodeId = int


@dataclass(frozen=True)
class LookupResult:
    """Outcome of resolving a key to its responsible node.

    ``hops`` counts overlay routing steps beyond the first contacted node;
    ``path`` lists every node id consulted, starting with the node that
    initiated the resolution.
    """

    key: int
    node: NodeId
    hops: int
    path: tuple[NodeId, ...] = field(default_factory=tuple)


class DHTProtocol(abc.ABC):
    """A key-to-node resolution service over a dynamic node population."""

    @property
    @abc.abstractmethod
    def bits(self) -> int:
        """Width of the identifier space in bits."""

    @property
    @abc.abstractmethod
    def node_ids(self) -> list[NodeId]:
        """Identifiers of all live nodes."""

    @abc.abstractmethod
    def lookup(self, key: int) -> LookupResult:
        """Resolve a numeric key to the responsible live node."""

    @abc.abstractmethod
    def add_node(self, node: NodeId) -> None:
        """Add a node with the given identifier to the overlay."""

    @abc.abstractmethod
    def remove_node(self, node: NodeId) -> None:
        """Remove a node from the overlay."""

    # -- crash state (transient failures, Section IV-C) ----------------------
    #
    # A *crashed* node differs from a *removed* one: it stays in the
    # overlay's routing state (lookups still resolve to it) but cannot
    # serve requests until it recovers.  This is the window in which the
    # storage layer's replica failover and the engine's retries must
    # carry the load.  The state lives here so every substrate exposes
    # ``fail_node`` / ``recover_node`` / ``is_alive`` consistently.

    @property
    def _crashed_nodes(self) -> set[NodeId]:
        crashed = self.__dict__.get("_crashed_node_set")
        if crashed is None:
            crashed = self.__dict__["_crashed_node_set"] = set()
        return crashed

    def fail_node(self, node: NodeId) -> None:
        """Mark a member node crashed (it stays in the overlay)."""
        if node not in self:
            raise KeyError(f"node id {node} not in the overlay")
        self._crashed_nodes.add(node)

    def recover_node(self, node: NodeId) -> None:
        """Bring a crashed node back up (no-op when it is not crashed)."""
        self._crashed_nodes.discard(node)

    def is_alive(self, node: NodeId) -> bool:
        """True for overlay members that are not currently crashed."""
        if node in self._crashed_nodes:
            return False
        return node in self

    @property
    def failed_nodes(self) -> set[NodeId]:
        """Crashed nodes that are still overlay members."""
        crashed = self._crashed_nodes
        if not crashed:
            return set()
        return crashed & set(self.node_ids)

    # -- membership versioning ----------------------------------------------
    #
    # Layers above the substrate (storage replica placement, service
    # registration) cache derived views of the membership -- the sorted
    # ring, node -> position maps -- that are only invalidated by joins
    # and leaves, never by lookups.  Every substrate bumps this counter
    # from ``add_node``/``remove_node`` so those caches can key on it
    # instead of re-deriving O(N) state per operation.

    @property
    def membership_version(self) -> int:
        """Counter incremented by every join or leave."""
        return self.__dict__.get("_membership_version", 0)

    def _bump_membership(self) -> None:
        self.__dict__["_membership_version"] = self.membership_version + 1
        # A crashed node that departs is gone, not crashed: left in the
        # set, a later join under the same id would come back dead.
        crashed = self._crashed_nodes
        if crashed:
            crashed -= {node for node in crashed if node not in self}

    # -- common helpers ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.node_ids)

    def __contains__(self, node: NodeId) -> bool:
        # Fallback only: every substrate overrides this with an O(1) or
        # O(log N) check against its own membership structure (this copy
        # plus set build is O(N) per call and sits under ``is_alive``,
        # which storage reads invoke per replica probe).
        return node in set(self.node_ids)

    def lookup_many(self, keys: list[int]) -> list[LookupResult]:
        """Resolve a batch of keys (convenience for bulk placement)."""
        return [self.lookup(key) for key in keys]
