"""Pastry: prefix-routing DHT (Rowstron & Druschel, Middleware 2001).

The third real substrate the paper names (its storage-layer example is
Pastry/PAST).  Node identifiers are strings of base-``2^b`` digits; each
node keeps:

- a **routing table** with one row per identifier-prefix length and one
  column per digit value: entry (r, c) points at some node sharing the
  first ``r`` digits with the owner and having digit ``c`` at position
  ``r``;
- a **leaf set** of the ``l/2`` numerically closest nodes on either side.

A message for key ``k`` is forwarded to a node whose shared prefix with
``k`` is at least one digit longer (routing table), or -- when no such
entry exists -- to a node numerically closer to ``k`` (leaf set), giving
``O(log_{2^b} N)`` hops.  A key is owned by the numerically closest node
(ties broken downward), which the leaf set decides exactly.

As with the other substrates this is an in-process simulation whose
routing consults strictly node-local state, so hop counts are faithful.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional

from repro.dht.base import DHTProtocol, LookupResult, NodeId
from repro.dht.idspace import DEFAULT_BITS


class PastryNode:
    """A single Pastry peer: routing table + leaf set."""

    def __init__(self, node_id: NodeId, bits: int, digit_bits: int, leaf_size: int) -> None:
        self.id = node_id
        self.bits = bits
        self.digit_bits = digit_bits
        self.rows = bits // digit_bits
        self.leaf_size = leaf_size
        # routing_table[row][column] -> node id or None.
        self.routing_table: list[list[Optional[NodeId]]] = [
            [None] * (1 << digit_bits) for _ in range(self.rows)
        ]
        # Numerically closest neighbours, below and above (sorted).
        self.leaf_below: list[NodeId] = []
        self.leaf_above: list[NodeId] = []

    def digit(self, value: NodeId, row: int) -> int:
        """The ``row``-th most significant base-2^b digit of ``value``."""
        shift = self.bits - (row + 1) * self.digit_bits
        return (value >> shift) & ((1 << self.digit_bits) - 1)

    def shared_prefix_length(self, other: NodeId) -> int:
        """Number of leading digits shared with ``other``."""
        for row in range(self.rows):
            if self.digit(self.id, row) != self.digit(other, row):
                return row
        return self.rows

    def observe(self, other: NodeId) -> None:
        """Install a contact into the routing table (first-come)."""
        if other == self.id:
            return
        row = self.shared_prefix_length(other)
        if row >= self.rows:
            return
        column = self.digit(other, row)
        if self.routing_table[row][column] is None:
            self.routing_table[row][column] = other

    def forget(self, other: NodeId) -> None:
        """Remove a (departed) contact from table and leaf sets."""
        row = self.shared_prefix_length(other)
        if row < self.rows:
            column = self.digit(other, row)
            if self.routing_table[row][column] == other:
                self.routing_table[row][column] = None
        if other in self.leaf_below:
            self.leaf_below.remove(other)
        if other in self.leaf_above:
            self.leaf_above.remove(other)

    def leaf_set(self) -> list[NodeId]:
        """The numerically closest neighbours, including this node."""
        return self.leaf_below + [self.id] + self.leaf_above

    def covers_key(self, key: int) -> bool:
        """True when the leaf set brackets ``key`` (owner decidable)."""
        leaves = self.leaf_set()
        return (not self.leaf_below or min(leaves) <= key) and (
            not self.leaf_above or key <= max(leaves)
        )


class PastryNetwork(DHTProtocol):
    """A simulated Pastry overlay."""

    _nodes: dict[NodeId, PastryNode]
    primary_is_ring_neighbour = True  # the numerically closest leaf

    def __init__(
        self, bits: int = DEFAULT_BITS, digit_bits: int = 4, leaf_size: int = 8
    ) -> None:
        if bits % digit_bits != 0:
            raise ValueError("bits must be a multiple of digit_bits")
        super().__init__(bits)
        self.digit_bits = digit_bits
        self.leaf_size = leaf_size

    def _converge(self, ordered: list[NodeId]) -> None:
        """Construct a converged overlay directly from global knowledge.

        Routing entry (row ``r``, column ``c``) of a node must point at
        a peer sharing the node's first ``r`` digits and having digit
        ``c`` at position ``r`` -- the ids in one contiguous range of
        the sorted membership.  The naive fill ``observe``d every pair
        (O(N^2) with an O(rows) digit scan each), installing the
        *smallest* id per slot (first-come over the ascending scan);
        one bisect per slot finds that same smallest id directly, in
        O(N * rows * 2^digit_bits * log N).
        """
        bits, digit_bits = self.bits, self.digit_bits
        count = len(ordered)
        columns = 1 << digit_bits
        for position, node_id in enumerate(ordered):
            peer = PastryNode(node_id, bits, digit_bits, self.leaf_size)
            self._nodes[node_id] = peer
            self._fill_leaf_sets(peer, ordered, position)
            for row in range(peer.rows):
                shift = bits - (row + 1) * digit_bits
                own_digit = (node_id >> shift) & (columns - 1)
                prefix = (node_id >> (shift + digit_bits)) << (shift + digit_bits)
                table_row = peer.routing_table[row]
                for column in range(columns):
                    if column == own_digit:
                        continue  # a longer shared prefix: deeper row's slot
                    base = prefix | (column << shift)
                    low = bisect_left(ordered, base)
                    if low < count and ordered[low] < base + (1 << shift):
                        table_row[column] = ordered[low]

    @staticmethod
    def _fill_leaf_sets(peer: PastryNode, ordered: list[NodeId], position: int) -> None:
        half = peer.leaf_size // 2
        peer.leaf_below = ordered[max(0, position - half) : position]
        peer.leaf_above = ordered[position + 1 : position + 1 + half]

    def _join(self, node: NodeId) -> None:
        """Join a node (converges to the same state as a routed JOIN)."""
        # Join: rebuild from the (small) global membership.  Incremental
        # Pastry join routes a JOIN message and copies table rows; the
        # converged state is identical, so we rebuild directly -- churn
        # behaviour is exercised through the leave hook's local repair.
        members = sorted([*self._nodes, node])
        self._nodes = {}
        self._converge(members)

    def _leave(self, node: NodeId) -> None:
        """Depart a node; peers repair routing entries and leaf sets."""
        del self._nodes[node]
        ordered = self._ordered()
        for peer in self._nodes.values():
            peer.forget(node)
            # Leaf-set repair: refill from the live membership around us
            # (real Pastry asks the farthest leaf for its leaf set).
            self._fill_leaf_sets(peer, ordered, bisect_left(ordered, peer.id))

    def lookup(self, key: int, start: Optional[NodeId] = None) -> LookupResult:
        """Prefix-route toward the key; the leaf set decides ownership."""
        current = self._nodes[self._lookup_start(key, start)]
        path: list[NodeId] = [current.id]
        for _ in range(2 * len(self._nodes) + current.rows):
            # Leaf set covers the key: deliver to the numerically closest
            # leaf (this is the exact ownership rule).
            if current.covers_key(key):
                owner = min(
                    (leaf for leaf in current.leaf_set() if leaf in self._nodes),
                    key=lambda n: (abs(n - key), n > key),
                )
                if owner != current.id:
                    path.append(owner)
                return LookupResult(
                    key=key, node=owner, hops=len(path), path=tuple(path)
                )
            shared = current.shared_prefix_length(key)
            next_id = None
            if shared < current.rows:
                candidate = current.routing_table[shared][
                    current.digit(key, shared)
                ]
                if candidate is not None and candidate in self._nodes:
                    next_id = candidate
            if next_id is None:
                # Rare case: fall back to any known node strictly closer.
                known = [
                    contact
                    for row in current.routing_table
                    for contact in row
                    if contact is not None and contact in self._nodes
                ] + [leaf for leaf in current.leaf_set() if leaf in self._nodes]
                closer = [
                    contact
                    for contact in known
                    if abs(contact - key) < abs(current.id - key)
                ]
                if not closer:
                    return LookupResult(
                        key=key, node=current.id, hops=len(path), path=tuple(path)
                    )
                next_id = min(closer, key=lambda n: abs(n - key))
            current = self._nodes[next_id]
            path.append(current.id)
        raise RuntimeError(f"lookup for key {key} did not converge")
