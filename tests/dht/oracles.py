"""Ground truth for the DHT suites, computed from global knowledge.

Each oracle answers from the overlay's public surface (the member ids,
a peer's own routing state, a zone) what routing must arrive at by
consulting node-local state only.  They lived on the network classes
"for tests"; nothing in ``src`` ever called them.
"""

from repro.dht.can import CANNetwork
from repro.dht.chord import ChordNetwork
from repro.dht.idspace import IdSpace
from repro.dht.kademlia import KademliaNetwork
from repro.dht.pastry import PastryNetwork


def kademlia_responsible_node(network: KademliaNetwork, key: int) -> int:
    """The globally XOR-closest member."""
    return min(network.node_ids, key=lambda n: n ^ key)


def pastry_responsible_node(network: PastryNetwork, key: int) -> int:
    """The numerically closest member (ties downward)."""
    return min(network.node_ids, key=lambda n: (abs(n - key), n > key))


def can_responsible_node(network: CANNetwork, key: int) -> int:
    """The member whose zone contains the key's point."""
    point = network.key_point(key)
    for node in network.node_ids:
        if network.node(node).contains(point):
            return node
    raise AssertionError(f"no zone contains {point}; partition broken")


def chord_ring_is_consistent(network: ChordNetwork) -> bool:
    """True when following successors from any node tours all nodes."""
    members = network.node_ids
    if not members:
        return True
    seen = []
    current = members[0]
    for _ in range(len(members) + 1):
        seen.append(current)
        current = network.node(current).successor
        if current == members[0]:
            break
    return len(seen) == len(members) and set(seen) == set(members)


def can_partition_is_valid(network: CANNetwork) -> bool:
    """Invariant: the zones' volumes add up to the whole torus."""
    total = 0.0
    for node in network.node_ids:
        zone = network.node(node)
        volume = 1.0
        for low, high in zip(zone.low, zone.high):
            volume *= high - low
        total += volume
    return abs(total - 1.0) < 1e-9


def distance_clockwise(space: IdSpace, source: int, target: int) -> int:
    """Clockwise distance from ``source`` to ``target`` on the ring."""
    return (target - source) % space.size


def distance_xor(left: int, right: int) -> int:
    """Kademlia's symmetric XOR distance."""
    return left ^ right
