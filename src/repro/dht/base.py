"""The membership base shared by all DHT substrates.

The indexing layer needs exactly one operation from the substrate
(Section III-A of the paper): given a key, find the live node responsible
for it.  That operation -- :meth:`DHTProtocol.lookup`, with the routing
cost (hop count and path) the storage layer aggregates and the substrate
ablation benchmarks -- is all a substrate writes, plus three hooks that
keep its routing state in step with the membership.  Everything else
(the identifier space, the member table, the ascending ring, liveness,
the change log, the join / leave / bulk-build checks) is the same for
every overlay and lives here, once.
"""

from __future__ import annotations

import abc
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Optional, TypeVar

from repro.dht.idspace import DEFAULT_BITS, IdSpace

NodeId = int
_Substrate = TypeVar("_Substrate", bound="DHTProtocol")


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
    """A key-to-node resolution service over a dynamic node population.

    A substrate supplies :meth:`lookup` and the hooks :meth:`_join`,
    :meth:`_leave` and (optionally) :meth:`_converge`; the hooks alone
    write ``_nodes``.
    """

    #: True where a key's primary is always one of the two members next
    #: to ``h(key)`` in identifier order: what lets ``moved_by`` name arcs.
    primary_is_ring_neighbour = False

    def __init__(self, bits: int = DEFAULT_BITS) -> None:
        self.space = IdSpace(bits)
        #: Width of the identifier space in bits.
        self.bits = bits
        #: Append-only change log: the node each accepted join or leave
        #: moved, ``None`` for a bulk build.  A layer above remembers how
        #: far it has read and revisits only what the tail can have moved.
        self.membership_log: list[Optional[NodeId]] = []
        #: Member table: node id -> the substrate's per-node routing state.
        self._nodes: dict[NodeId, Any] = {}
        #: The members in ascending order, built on demand (see ``_ordered``).
        self._ring: Optional[list[NodeId]] = None
        # A *crashed* node differs from a *removed* one: it stays in the
        # overlay's routing state (lookups still resolve to it) but cannot
        # serve requests until it recovers (Section IV-C).  This is the
        # window in which the storage layer's replica failover and the
        # engine's retries must carry the load.
        self._crashed: set[NodeId] = set()

    # -- what a substrate supplies -------------------------------------------

    @abc.abstractmethod
    def lookup(self, key: int) -> LookupResult:
        """Resolve a numeric key to the responsible live node."""

    @abc.abstractmethod
    def _join(self, node: NodeId) -> None:
        """Enter ``node`` (checked: in the space, not a member) into
        ``_nodes`` and bring the routing state up to date."""

    @abc.abstractmethod
    def _leave(self, node: NodeId) -> None:
        """Drop ``node`` (checked: a member) from ``_nodes`` and repair
        the routing state of the survivors."""

    def _converge(self, ordered: list[NodeId]) -> None:
        """Fill an empty overlay with ``ordered`` (checked: ascending,
        distinct, in the space), to the state joins would converge to.
        Substrates that can compute that state directly override this."""
        for node in ordered:
            self._join(node)
            self._ring = None  # this join may have read it before entering

    # -- membership changes: check, hook, bump --------------------------------

    @classmethod
    def bulk_build(
        cls: type[_Substrate],
        node_ids: list[NodeId],
        bits: int = DEFAULT_BITS,
        **parameters: Any,
    ) -> _Substrate:
        """One converged overlay over ``node_ids`` (``parameters`` are the
        substrate's own constructor arguments)."""
        network = cls(bits=bits, **parameters)
        ordered = sorted(set(node_ids))
        if len(ordered) != len(node_ids):
            raise ValueError("duplicate node ids")
        for node in ordered:
            if not network.space.contains(node):
                raise ValueError(f"node id {node} outside the identifier space")
        network._change(network._converge, ordered)
        return network

    def add_node(self, node: NodeId) -> None:
        """Add a node with the given identifier to the overlay."""
        if not self.space.contains(node):
            raise ValueError(f"node id {node} outside the identifier space")
        if node in self._nodes:
            raise ValueError(f"node id {node} already present")
        self._change(self._join, node)

    def remove_node(self, node: NodeId) -> None:
        """Remove a node from the overlay."""
        if node not in self._nodes:
            raise KeyError(f"node id {node} not present")
        self._change(self._leave, node)
        # A crashed node that departs is gone, not crashed: left in the
        # set, a later join under the same id would come back dead.
        self._crashed.discard(node)

    def _change(self, hook, argument) -> None:
        # Dropped on both sides: before, so a hook that reads the ring
        # after touching ``_nodes`` (Pastry's leave) gets the new one;
        # after, because one that reads it first (Kademlia picking its
        # bootstrap) rebuilt it from the old membership.
        self._ring = None
        hook(argument)
        self._ring = None
        self.membership_log.append(None if hook == self._converge else argument)

    # -- membership views ----------------------------------------------------

    @property
    def membership_version(self) -> int:
        """Accepted membership changes so far: the change log's length."""
        return len(self.membership_log)

    def moved_by(self, changed: list[Optional[NodeId]], reach: int):
        """Where the joins and leaves of ``changed`` can have moved a
        placement on a primary and the ``reach - 1`` members after it:
        each node ``c`` marks the arc ``(pred_reach(c), succ(c)]`` of the
        current ring.  Returns ``(bounds, near)``: ``h(key)`` is in an arc
        iff ``bisect_left(bounds, h(key))`` is odd, and ``near`` holds the
        members within ``reach + 1`` positions of a ``c``.  Everything and
        everyone when there is no neighbour rule, a bulk build among the
        changes, or nothing of the ring left outside the arcs."""
        ring, gaps, near = self._ordered(), set(), set()
        count = len(ring)
        everything = [-1, self.space.size], self._nodes.keys()
        if not (self.primary_is_ring_neighbour and ring) or None in changed:
            return everything
        for node in changed:
            at = bisect_left(ring, node)
            end = at + (ring[at % count] == node)  # a member: (c, succ(c)] too
            # Gap g holds the keys in (ring[g - 1], ring[g]]; gap 0 wraps.
            gaps.update(g % count for g in range(at - reach + 1, end + 1))
            near.update(ring[p % count] for p in range(at - reach - 1, at + reach + 2))
        if len(gaps) >= count:
            return everything
        bounds: list[int] = []
        for gap in sorted(gaps):
            bounds += (ring[gap - 1] if gap else -1, ring[gap])
        if 0 in gaps:
            bounds += (ring[-1], self.space.size)
        return bounds, near

    def _ordered(self) -> list[NodeId]:
        """The cached ascending ring itself (callers must not mutate it)."""
        ring = self._ring
        if ring is None:
            ring = self._ring = sorted(self._nodes)
        return ring

    @property
    def node_ids(self) -> list[NodeId]:
        """Identifiers of all member nodes, ascending (a fresh list)."""
        return list(self._ordered())

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._nodes

    def node(self, node_id: NodeId) -> Any:
        """A member's routing state: the substrate's peer object."""
        return self._nodes[node_id]

    def successors(self, node: NodeId, count: int) -> list[NodeId]:
        """``node`` and the members after it in identifier order, wrapping:
        ``count`` of them, or every member when there are fewer
        (successor-list replica placement, as in DHash/PAST)."""
        ring = self._ordered()
        start = bisect_left(ring, node)
        if start == len(ring) or ring[start] != node:
            raise KeyError(f"node id {node} not in the overlay")
        head = ring[start : start + count]
        return head + ring[: min(count - len(head), start)]

    def _lookup_start(self, key: int, start: Optional[NodeId]) -> NodeId:
        """The checks every routed lookup opens with; returns the node the
        resolution starts from (default: the lowest id)."""
        if not self._nodes:
            raise RuntimeError("network has no nodes")
        if not self.space.contains(key):
            raise ValueError(f"key {key} outside the identifier space")
        return self._ordered()[0] if start is None else start

    # -- crash state (transient failures, Section IV-C) ----------------------

    def fail_node(self, node: NodeId) -> None:
        """Mark a member node crashed (it stays in the overlay)."""
        if node not in self._nodes:
            raise KeyError(f"node id {node} not in the overlay")
        self._crashed.add(node)

    def recover_node(self, node: NodeId) -> None:
        """Bring a crashed node back up (no-op when it is not crashed)."""
        self._crashed.discard(node)

    def is_alive(self, node: NodeId) -> bool:
        """True for overlay members that are not currently crashed."""
        return node in self._nodes and node not in self._crashed
