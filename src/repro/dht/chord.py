"""Chord: ring-based DHT with finger tables (Stoica et al., SIGCOMM 2001).

Implements the protocol the paper cites as its primary example substrate:

- an m-bit circular identifier space in which the node responsible for a
  key is the key's clockwise *successor*;
- per-node finger tables (finger ``i`` points at the first node succeeding
  ``n + 2^i``), giving O(log N)-hop iterative lookups;
- successor lists for resilience to departures;
- textbook ``join``/``stabilize``/``fix_fingers``/``notify`` maintenance,
  plus a convergence driver that runs maintenance rounds until the overlay
  is quiescent (used after membership changes so that the network object
  always answers lookups correctly).

The implementation is a *simulation*: nodes are in-process objects and
"messages" are method calls, but the information each node consults during
routing is strictly node-local state (its fingers, successors, and
predecessor), so hop counts are faithful to the real protocol.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional

from repro.dht.base import DHTProtocol, LookupResult, NodeId
from repro.dht.idspace import DEFAULT_BITS, in_interval


class ChordNode:
    """A single Chord peer: node-local routing state."""

    def __init__(self, node_id: NodeId, bits: int, successor_list_size: int) -> None:
        self.id = node_id
        self.bits = bits
        self.fingers: list[Optional[NodeId]] = [None] * bits
        self.successor_list: list[NodeId] = []
        self.successor_list_size = successor_list_size
        self.predecessor: Optional[NodeId] = None

    @property
    def successor(self) -> NodeId:
        """The node's current immediate successor (itself when alone)."""
        if self.successor_list:
            return self.successor_list[0]
        return self.id

    def set_successor(self, successor: NodeId) -> None:
        """Replace the immediate successor (head of the successor list)."""
        if self.successor_list:
            self.successor_list[0] = successor
        else:
            self.successor_list.append(successor)

    def closest_preceding_node(self, key: int) -> NodeId:
        """Best local routing choice: the highest finger in (id, key)."""
        for finger in reversed(self.fingers):
            if finger is not None and in_interval(finger, self.id, key):
                return finger
        for candidate in reversed(self.successor_list):
            if in_interval(candidate, self.id, key):
                return candidate
        return self.id


class ChordNetwork(DHTProtocol):
    """A simulated Chord overlay with correct-by-convergence maintenance."""

    _nodes: dict[NodeId, ChordNode]
    primary_is_ring_neighbour = True  # the clockwise successor

    def __init__(
        self,
        bits: int = DEFAULT_BITS,
        successor_list_size: int = 8,
        max_stabilize_rounds: int = 64,
    ) -> None:
        super().__init__(bits)
        self.successor_list_size = successor_list_size
        self.max_stabilize_rounds = max_stabilize_rounds

    def _converge(self, ordered: list[NodeId]) -> None:
        """Construct a converged overlay directly from global knowledge.

        Produces exactly the state incremental join+stabilization would
        converge to, in O(N log N + N*m) instead of O(N^2 m): successors,
        predecessors, successor lists, and finger tables are computed from
        the sorted ring.  Used to stand up large simulated networks; the
        incremental protocol remains available for churn experiments.
        """
        count = len(ordered)
        for position, node_id in enumerate(ordered):
            peer = ChordNode(node_id, self.bits, self.successor_list_size)
            peer.predecessor = ordered[(position - 1) % count]
            peer.successor_list = [
                ordered[(position + offset + 1) % count]
                for offset in range(min(self.successor_list_size, count))
            ]
            for index in range(self.bits):
                start = self.space.finger_start(node_id, index)
                peer.fingers[index] = ordered[bisect_left(ordered, start) % count]
            self._nodes[node_id] = peer

    def _join(self, node: NodeId) -> None:
        """Textbook join: find the successor, then stabilize to quiescence."""
        peer = ChordNode(node, self.bits, self.successor_list_size)
        if not self._nodes:
            peer.set_successor(node)
            peer.predecessor = node
            self._nodes[node] = peer
            self._refresh_fingers(peer)
            return
        bootstrap = next(iter(self._nodes.values()))
        peer.set_successor(self._find_successor_internal(bootstrap, node))
        self._nodes[node] = peer
        self.stabilize_until_quiescent()

    def _leave(self, node: NodeId) -> None:
        """Depart a node and repair successors/fingers via stabilization."""
        del self._nodes[node]
        if not self._nodes:
            return
        for peer in self._nodes.values():
            peer.successor_list = [s for s in peer.successor_list if s != node]
            peer.fingers = [f if f != node else None for f in peer.fingers]
            if peer.predecessor == node:
                peer.predecessor = None
            if not peer.successor_list:
                # Lost the whole successor list: fall back to any live node
                # (a real node would use its last known alternates).
                peer.successor_list = [self._any_other(peer.id)]
        self.stabilize_until_quiescent()

    def lookup(self, key: int, start: Optional[NodeId] = None) -> LookupResult:
        """Iteratively resolve a key from ``start`` (default: lowest id)."""
        current = self._nodes[self._lookup_start(key, start)]
        path: list[NodeId] = [current.id]
        for _ in range(2 * len(self._nodes) + self.bits):
            successor = current.successor
            if in_interval(key, current.id, successor, right_closed=True):
                if successor != current.id:
                    path.append(successor)
                return LookupResult(
                    key=key, node=successor, hops=len(path), path=tuple(path)
                )
            next_id = current.closest_preceding_node(key)
            if next_id == current.id:
                # No finger makes progress; step to the successor.
                next_id = successor
            current = self._nodes[next_id]
            path.append(current.id)
        raise RuntimeError(f"lookup for key {key} did not converge")

    # -- maintenance protocol --------------------------------------------------

    def stabilize_node(self, node_id: NodeId) -> bool:
        """One round of stabilize+notify for one node.

        Returns ``True`` when the node's state changed (used by the
        convergence driver).
        """
        peer = self._nodes[node_id]
        changed = False
        successor = self._nodes.get(peer.successor)
        if successor is None:
            peer.set_successor(self._any_other(peer.id))
            successor = self._nodes[peer.successor]
            changed = True
        candidate = successor.predecessor
        if (
            candidate is not None
            and candidate in self._nodes
            and in_interval(candidate, peer.id, successor.id)
        ):
            peer.set_successor(candidate)
            successor = self._nodes[candidate]
            changed = True
        # notify: tell the successor about us.
        if successor.predecessor is None or (
            successor.predecessor not in self._nodes
        ) or in_interval(peer.id, successor.predecessor, successor.id):
            if successor.predecessor != peer.id:
                successor.predecessor = peer.id
                changed = True
        if self._refresh_successor_list(peer):
            changed = True
        if self._refresh_fingers(peer):
            changed = True
        return changed

    def stabilize_until_quiescent(self) -> int:
        """Run maintenance rounds until no node changes; returns rounds."""
        for round_number in range(1, self.max_stabilize_rounds + 1):
            changed = False
            for node_id in sorted(self._nodes):
                if self.stabilize_node(node_id):
                    changed = True
            if not changed:
                return round_number
        raise RuntimeError("stabilization did not converge")

    def _refresh_successor_list(self, peer: ChordNode) -> bool:
        """Rebuild the successor list by walking successors' successors."""
        new_list: list[NodeId] = []
        current = peer.successor
        for _ in range(self.successor_list_size):
            if current not in self._nodes:
                break
            new_list.append(current)
            current = self._nodes[current].successor
            if current == peer.id or (new_list and current == new_list[0]):
                break
        if new_list and new_list != peer.successor_list:
            peer.successor_list = new_list
            return True
        return False

    def _refresh_fingers(self, peer: ChordNode) -> bool:
        changed = False
        for index in range(self.bits):
            start = self.space.finger_start(peer.id, index)
            target = self._find_successor_internal(peer, start)
            if peer.fingers[index] != target:
                peer.fingers[index] = target
                changed = True
        return changed

    def _find_successor_internal(self, start: ChordNode, key: int) -> NodeId:
        """Authoritative successor resolution used for maintenance.

        Routes greedily like :meth:`lookup` but falls back to the sorted
        ring on stale state, because maintenance must never fail.
        """
        current = start
        for _ in range(2 * len(self._nodes) + self.bits):
            successor = current.successor
            if in_interval(key, current.id, successor, right_closed=True):
                if successor in self._nodes:
                    return successor
                break
            next_id = current.closest_preceding_node(key)
            if next_id == current.id:
                next_id = successor
            if next_id not in self._nodes:
                break
            current = self._nodes[next_id]
        ordered = sorted(self._nodes)
        for node_id in ordered:
            if node_id >= key:
                return node_id
        return ordered[0]

    def _any_other(self, node_id: NodeId) -> NodeId:
        for candidate in self._nodes:
            if candidate != node_id:
                return candidate
        return node_id
