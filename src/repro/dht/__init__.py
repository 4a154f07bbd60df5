"""DHT substrates: key-to-node lookup protocols.

The paper layers its indexes on top of "an arbitrary P2P DHT
infrastructure" (Chord, CAN, Pastry, Tapestry are cited) and explicitly
does not depend on any particular one.  This package provides five
interchangeable substrates behind one interface:

- :class:`repro.dht.ring.IdealRing` -- consistent hashing with global
  knowledge, resolving any key in one hop.  This is the abstraction the
  paper's own simulation uses ("we simply assume that the underlying DHT
  is able to find a node n responsible for a given key k").
- :class:`repro.dht.chord.ChordNetwork` -- Chord (Stoica et al., SIGCOMM
  2001): an m-bit identifier ring with finger tables, successor lists, and
  iterative O(log N)-hop lookups, plus join/leave/stabilize.
- :class:`repro.dht.kademlia.KademliaNetwork` -- Kademlia (Maymounkov &
  Mazières, IPTPS 2002): XOR metric, k-buckets, iterative node lookups.
- :class:`repro.dht.pastry.PastryNetwork` -- Pastry (Rowstron & Druschel,
  Middleware 2001): prefix routing tables and leaf sets.
- :class:`repro.dht.can.CANNetwork` -- CAN (Ratnasamy et al., SIGCOMM
  2001): d-dimensional torus zones with greedy geometric routing.

All of them resolve a key to the same notion of "responsible node" given the
same node population (modulo each protocol's distance metric), and all
report per-lookup hop counts so the substrate-independence ablation can
contrast routing cost with indexing cost.
"""

from repro.dht.base import DHTProtocol, LookupResult, NodeId
from repro.dht.can import CANNetwork, Zone
from repro.dht.chord import ChordNetwork, ChordNode
from repro.dht.idspace import (
    DEFAULT_BITS,
    IdSpace,
    hash_key,
    in_interval,
)
from repro.dht.kademlia import KademliaNetwork, KademliaNode
from repro.dht.pastry import PastryNetwork, PastryNode
from repro.dht.ring import IdealRing

#: The substrates by name -- the one table behind ``--substrate`` in the
#: simulator, the node daemon and the cluster client.
SUBSTRATES: dict[str, type[DHTProtocol]] = {
    "ideal": IdealRing,
    "chord": ChordNetwork,
    "kademlia": KademliaNetwork,
    "pastry": PastryNetwork,
    "can": CANNetwork,
}


def build_substrate(
    name: str, node_ids: list[NodeId], bits: int = DEFAULT_BITS
) -> DHTProtocol:
    """One converged overlay of the named substrate over ``node_ids``."""
    if name not in SUBSTRATES:
        raise ValueError(f"unknown substrate: {name!r}")
    return SUBSTRATES[name].bulk_build(node_ids, bits=bits)


__all__ = [
    "DEFAULT_BITS",
    "IdSpace",
    "hash_key",
    "in_interval",
    "DHTProtocol",
    "LookupResult",
    "NodeId",
    "IdealRing",
    "ChordNetwork",
    "ChordNode",
    "KademliaNetwork",
    "KademliaNode",
    "PastryNetwork",
    "PastryNode",
    "CANNetwork",
    "Zone",
    "build_substrate",
]
