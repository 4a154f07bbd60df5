"""Unit tests for the Chord substrate."""

import random

import pytest

from repro.dht.chord import ChordNetwork
from repro.dht.ring import IdealRing
from tests.dht.oracles import chord_ring_is_consistent


def reference_successor(node_ids, key, size):
    ordered = sorted(node_ids)
    for node in ordered:
        if node >= key:
            return node
    return ordered[0]


@pytest.fixture
def network():
    network = ChordNetwork(bits=10)
    for node in (5, 100, 300, 600, 900):
        network.add_node(node)
    return network


class TestIncrementalMembership:
    def test_single_node_self_loops(self):
        network = ChordNetwork(bits=8)
        network.add_node(42)
        peer = network.node(42)
        assert peer.successor == 42
        assert peer.predecessor == 42
        assert network.lookup(7).node == 42

    def test_ring_consistent_after_joins(self, network):
        assert chord_ring_is_consistent(network)

    def test_successor_chain_ordered(self, network):
        assert network.node(5).successor == 100
        assert network.node(900).successor == 5

    def test_predecessors(self, network):
        assert network.node(100).predecessor == 5
        assert network.node(5).predecessor == 900

    def test_duplicate_join_rejected(self, network):
        with pytest.raises(ValueError):
            network.add_node(100)

    def test_out_of_space_rejected(self):
        with pytest.raises(ValueError):
            ChordNetwork(bits=4).add_node(16)

    def test_leave_keeps_ring(self, network):
        network.remove_node(300)
        assert chord_ring_is_consistent(network)
        assert network.node(100).successor == 600

    def test_remove_missing(self, network):
        with pytest.raises(KeyError):
            network.remove_node(4242)


class TestLookup:
    def test_matches_consistent_hashing(self, network):
        for key in range(0, 1024, 7):
            expected = reference_successor(network.node_ids, key, 1024)
            assert network.lookup(key).node == expected

    def test_lookup_from_any_start(self, network):
        for start in network.node_ids:
            assert network.lookup(450, start=start).node == 600

    def test_path_starts_at_initiator(self, network):
        result = network.lookup(450, start=5)
        assert result.path[0] == 5

    def test_key_owner_lookup(self, network):
        assert network.lookup(100).node == 100

    def test_empty_network(self):
        with pytest.raises(RuntimeError):
            ChordNetwork(bits=8).lookup(1)

    def test_logarithmic_hops(self):
        rng = random.Random(7)
        network = ChordNetwork.bulk_build(
            sorted(rng.sample(range(1 << 16), 128)), bits=16
        )
        hops = [
            network.lookup(rng.randrange(1 << 16)).hops for _ in range(200)
        ]
        # O(log N): with 128 nodes, lookups should stay well under 128/2
        # and average around log2(128) = 7.
        assert max(hops) <= 20
        assert sum(hops) / len(hops) < 10


class TestBulkBuild:
    def test_equivalent_to_incremental(self):
        ids = [5, 100, 300, 600, 900]
        incremental = ChordNetwork(bits=10)
        for node in ids:
            incremental.add_node(node)
        bulk = ChordNetwork.bulk_build(ids, bits=10)
        for key in range(0, 1024, 13):
            assert bulk.lookup(key).node == incremental.lookup(key).node

    def test_matches_ideal_ring(self):
        rng = random.Random(3)
        ids = sorted(rng.sample(range(1 << 12), 40))
        chord = ChordNetwork.bulk_build(ids, bits=12)
        ring = IdealRing(bits=12)
        for node in ids:
            ring.add_node(node)
        for _ in range(300):
            key = rng.randrange(1 << 12)
            assert chord.lookup(key).node == ring.lookup(key).node

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            ChordNetwork.bulk_build([1, 1, 2], bits=8)

    def test_fingers_fully_populated(self):
        network = ChordNetwork.bulk_build([10, 50, 200], bits=8)
        for node_id in network.node_ids:
            assert None not in network.node(node_id).fingers


class TestChurn:
    def test_lookups_correct_under_churn(self):
        rng = random.Random(11)
        ids = rng.sample(range(1 << 12), 30)
        network = ChordNetwork(bits=12)
        ring = IdealRing(bits=12)
        for node in ids:
            network.add_node(node)
            ring.add_node(node)
        # Interleave joins and leaves.
        for node in rng.sample(ids, 10):
            network.remove_node(node)
            ring.remove_node(node)
        for fresh in rng.sample(range(1 << 12), 10):
            if fresh not in network:
                network.add_node(fresh)
                ring.add_node(fresh)
        assert chord_ring_is_consistent(network)
        for _ in range(200):
            key = rng.randrange(1 << 12)
            assert network.lookup(key).node == ring.lookup(key).node

    def test_stabilize_converges_and_reports_rounds(self, network):
        rounds = network.stabilize_until_quiescent()
        assert rounds >= 1
