"""Property-based tests for the DHT substrates.

Invariant: all substrates agree with consistent hashing on their own
distance metric -- Chord resolves every key to the key's clockwise
successor (the ideal ring's answer), Kademlia to the XOR-closest node --
under arbitrary membership sets and churn sequences.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.chord import ChordNetwork
from repro.dht.kademlia import KademliaNetwork
from repro.dht.ring import IdealRing
from tests.dht.oracles import chord_ring_is_consistent

BITS = 10
SPACE = 1 << BITS

node_sets = st.sets(st.integers(0, SPACE - 1), min_size=1, max_size=24)
keys = st.lists(st.integers(0, SPACE - 1), min_size=1, max_size=24)


@given(node_sets, keys)
@settings(max_examples=80, deadline=None)
def test_chord_agrees_with_ideal_ring(nodes, lookups):
    chord = ChordNetwork.bulk_build(sorted(nodes), bits=BITS)
    ring = IdealRing(bits=BITS)
    for node in nodes:
        ring.add_node(node)
    for key in lookups:
        assert chord.lookup(key).node == ring.lookup(key).node


@given(node_sets, keys)
@settings(max_examples=80, deadline=None)
def test_kademlia_finds_xor_closest(nodes, lookups):
    network = KademliaNetwork.bulk_build(sorted(nodes), bits=BITS, k=4)
    for key in lookups:
        assert network.lookup(key).node == min(nodes, key=lambda n: n ^ key)


@given(node_sets, st.sets(st.integers(0, SPACE - 1), max_size=10), keys)
@settings(max_examples=40, deadline=None)
def test_chord_correct_after_churn(initial, extra, lookups):
    chord = ChordNetwork(bits=BITS)
    ring = IdealRing(bits=BITS)
    for node in sorted(initial):
        chord.add_node(node)
        ring.add_node(node)
    for node in sorted(extra - initial):
        chord.add_node(node)
        ring.add_node(node)
    # Remove half of the original population (keep at least one node).
    victims = sorted(initial)[: len(initial) // 2]
    for node in victims:
        if len(chord) > 1:
            chord.remove_node(node)
            ring.remove_node(node)
    assert chord_ring_is_consistent(chord)
    for key in lookups:
        assert chord.lookup(key).node == ring.lookup(key).node


@given(node_sets)
@settings(max_examples=60, deadline=None)
def test_chord_ring_tour_visits_every_node(nodes):
    chord = ChordNetwork.bulk_build(sorted(nodes), bits=BITS)
    assert chord_ring_is_consistent(chord)


@given(node_sets, keys)
@settings(max_examples=60, deadline=None)
def test_lookup_deterministic(nodes, lookups):
    chord = ChordNetwork.bulk_build(sorted(nodes), bits=BITS)
    for key in lookups:
        first = chord.lookup(key)
        second = chord.lookup(key)
        assert first.node == second.node
        assert first.path == second.path
