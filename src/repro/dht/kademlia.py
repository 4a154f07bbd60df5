"""Kademlia: XOR-metric DHT with k-buckets (Maymounkov & Mazières, 2002).

The second real substrate for the layering ablation.  The node responsible
for a key is the live node whose identifier minimizes the XOR distance to
the key.  Routing state is per-node: ``bits`` k-buckets, bucket ``i``
holding up to ``k`` contacts whose distance to the owner has bit length
``i + 1`` (i.e. shares exactly ``bits - i - 1`` leading bits).

Lookups are iterative: the initiator keeps a shortlist of the ``k``
closest contacts seen, repeatedly queries the closest unqueried one for
its ``k`` closest contacts to the target, and stops when the shortlist
stops improving.  Every queried node counts as a hop.  As in the real
protocol, nodes opportunistically learn about peers that contact them.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional

from repro.dht.base import DHTProtocol, LookupResult, NodeId
from repro.dht.idspace import DEFAULT_BITS


class KademliaNode:
    """A single Kademlia peer: its id and k-bucket table."""

    def __init__(self, node_id: NodeId, bits: int, k: int) -> None:
        self.id = node_id
        self.bits = bits
        self.k = k
        # buckets[i] holds contacts at XOR distance with bit length i+1,
        # most-recently-seen last (we do not model liveness pings, so a
        # full bucket simply rejects new contacts, per the original paper).
        self.buckets: list[list[NodeId]] = [[] for _ in range(bits)]

    def bucket_index(self, other: NodeId) -> int:
        """Bucket holding a contact: bit length of the XOR distance - 1."""
        distance = self.id ^ other
        if distance == 0:
            raise ValueError("a node does not bucket itself")
        return distance.bit_length() - 1

    def observe(self, other: NodeId) -> None:
        """Record a live contact (move-to-tail on re-observation)."""
        if other == self.id:
            return
        bucket = self.buckets[self.bucket_index(other)]
        if other in bucket:
            bucket.remove(other)
            bucket.append(other)
        elif len(bucket) < self.k:
            bucket.append(other)
        # else: bucket full; the original protocol pings the oldest contact
        # and keeps it if alive -- all our contacts are alive, so drop.

    def forget(self, other: NodeId) -> bool:
        """Remove a (departed) contact from its bucket; true if it was there."""
        bucket = self.buckets[self.bucket_index(other)]
        if other in bucket:
            bucket.remove(other)
            return True
        return False

    def closest_contacts(self, key: int, count: int) -> list[NodeId]:
        """The node's ``count`` known contacts closest to ``key`` (XOR)."""
        contacts = [c for bucket in self.buckets for c in bucket]
        contacts.append(self.id)
        contacts.sort(key=lambda c: c ^ key)
        return contacts[:count]


class KademliaNetwork(DHTProtocol):
    """A simulated Kademlia overlay with iterative lookups."""

    _nodes: dict[NodeId, KademliaNode]

    def __init__(self, bits: int = DEFAULT_BITS, k: int = 8) -> None:
        super().__init__(bits)
        self.k = k

    def _converge(self, ordered: list[NodeId]) -> None:
        """Construct a converged overlay directly from global knowledge.

        Each node's buckets are filled with up to ``k`` contacts per
        populated distance range -- the steady state periodic refresh
        maintains -- without paying one iterative lookup per bucket per
        join.  The incremental protocol remains available for churn.

        Bucket ``i`` of node ``n`` holds peers whose XOR distance to
        ``n`` has bit length ``i + 1``: exactly the ids agreeing with
        ``n`` above bit ``i`` and differing at bit ``i``, which is the
        contiguous range ``[base, base + 2^i)`` with ``base = (n ^ 2^i)
        & ~(2^i - 1)``.  Taking the first ``k`` of the sorted membership
        in that range (two bisects) reproduces the naive
        scan-all-pairs fill -- which appended candidates in ascending id
        order -- in O(N * bits * log N) instead of O(N^2).
        """
        k = self.k
        for node_id in ordered:
            peer = self._nodes[node_id] = KademliaNode(node_id, self.bits, k)
            buckets = peer.buckets
            for index in range(self.bits):
                width = 1 << index
                base = (node_id ^ width) & ~(width - 1)
                low = bisect_left(ordered, base)
                high = bisect_left(ordered, base + width, low)
                contacts = ordered[low : min(low + k, high)]
                if contacts:
                    buckets[index] = contacts

    def _join(self, node: NodeId) -> None:
        """Join: bootstrap contact, self-lookup, bucket refresh."""
        # The lowest id already present, read before the joiner goes in.
        bootstrap = self._ordered()[0] if self._nodes else None
        peer = self._nodes[node] = KademliaNode(node, self.bits, self.k)
        if bootstrap is None:
            return
        peer.observe(bootstrap)
        self._nodes[bootstrap].observe(node)
        # Join procedure of the original paper: a self-lookup populates
        # buckets along the path, then every bucket range is refreshed so
        # the node knows a contact in each populated subtree -- the
        # invariant that makes greedy XOR routing converge globally.
        self._iterative_find(peer, node)
        self.refresh_node(node)
        for contact in peer.closest_contacts(node, self.k):
            if contact != node:
                self._nodes[contact].observe(node)

    def _leave(self, node: NodeId) -> None:
        """Depart a node; affected peers re-probe the emptied range."""
        del self._nodes[node]
        affected = [peer for peer in self._nodes.values() if peer.forget(node)]
        # Repair: peers that lost a contact re-probe that bucket's range so
        # routing tables keep one contact per populated subtree (the role
        # of Kademlia's periodic bucket refresh).
        for peer in affected:
            self._iterative_find(peer, node)

    def refresh_node(self, node: NodeId) -> None:
        """Refresh every bucket range of one node (periodic maintenance)."""
        peer = self._nodes[node]
        for index in range(self.bits):
            probe = peer.id ^ (1 << index)
            self._iterative_find(peer, probe)

    def lookup(self, key: int, start: Optional[NodeId] = None) -> LookupResult:
        """Iterative FIND_NODE toward the XOR-closest node."""
        initiator = self._nodes[self._lookup_start(key, start)]
        closest, path = self._iterative_find(initiator, key)
        return LookupResult(key=key, node=closest, hops=len(path), path=tuple(path))

    def _iterative_find(
        self, initiator: KademliaNode, key: int
    ) -> tuple[NodeId, list[NodeId]]:
        """Iterative FIND_NODE; returns (closest node, queried path)."""
        shortlist = set(initiator.closest_contacts(key, self.k))
        shortlist.add(initiator.id)
        queried: set[NodeId] = {initiator.id}
        path: list[NodeId] = []
        while True:
            live = [n for n in shortlist if n in self._nodes]
            closest_k = sorted(live, key=lambda n: n ^ key)[: self.k]
            unqueried = [n for n in closest_k if n not in queried]
            if not unqueried:
                break
            target = unqueried[0]
            contact = self._nodes[target]
            queried.add(target)
            path.append(target)
            # The queried node learns about the initiator (opportunistic
            # routing-table maintenance), and vice versa.
            contact.observe(initiator.id)
            for learned in contact.closest_contacts(key, self.k):
                initiator.observe(learned)
                shortlist.add(learned)
        live = [n for n in shortlist if n in self._nodes]
        closest = min(live, key=lambda n: n ^ key)
        return closest, path
