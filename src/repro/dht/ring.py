"""Ideal consistent-hashing ring: the paper's substrate abstraction.

Section V-A: "we simply assume that the underlying DHT is able to find a
node n responsible for a given key k".  The ideal ring implements exactly
that assumption -- each key is owned by its clockwise successor node, and
resolution is a single hop -- making it the reference substrate for all
headline experiments, while Chord and Kademlia substantiate the layering
claim in the ablation.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.dht.base import DHTProtocol, LookupResult, NodeId


class IdealRing(DHTProtocol):
    """Consistent hashing with global knowledge (one-hop resolution).

    There is no routing state to keep: the member table maps every node
    to ``None`` and the base's ascending ring *is* the overlay, so a bulk
    build is one sort however many nodes there are.
    """

    primary_is_ring_neighbour = True  # the clockwise successor

    def _join(self, node: NodeId) -> None:
        self._nodes[node] = None

    def _leave(self, node: NodeId) -> None:
        del self._nodes[node]

    def successor(self, key: int) -> NodeId:
        """The first node at or clockwise after ``key``."""
        ring = self._ring or self._ordered()
        if not ring:
            raise RuntimeError("ring has no nodes")
        index = bisect_left(ring, key)
        if index == len(ring):
            index = 0
        return ring[index]

    def lookup(self, key: int) -> LookupResult:
        """Resolve a key to its clockwise successor in one hop."""
        if not self.space.contains(key):
            raise ValueError(f"key {key} outside the identifier space")
        node = self.successor(key)
        return LookupResult(key=key, node=node, hops=1, path=(node,))
