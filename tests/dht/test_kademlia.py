"""Unit tests for the Kademlia substrate."""

import random

import pytest

from repro.dht.kademlia import KademliaNetwork, KademliaNode
from tests.dht.oracles import kademlia_responsible_node


class TestNodeBuckets:
    def test_bucket_index_is_distance_bit_length(self):
        node = KademliaNode(0b1000, bits=8, k=4)
        assert node.bucket_index(0b1001) == 0   # distance 1
        assert node.bucket_index(0b1100) == 2   # distance 4
        assert node.bucket_index(0b0000) == 3   # distance 8

    def test_self_bucket_rejected(self):
        node = KademliaNode(5, bits=8, k=4)
        with pytest.raises(ValueError):
            node.bucket_index(5)

    def test_observe_and_capacity(self):
        node = KademliaNode(0, bits=8, k=2)
        # ids 128..255 all land in the top bucket of node 0.
        node.observe(130)
        node.observe(140)
        node.observe(150)  # bucket full: dropped
        bucket = node.buckets[7]
        assert bucket == [130, 140]

    def test_reobservation_moves_to_tail(self):
        node = KademliaNode(0, bits=8, k=3)
        node.observe(130)
        node.observe(140)
        node.observe(130)
        assert node.buckets[7] == [140, 130]

    def test_observe_self_is_noop(self):
        node = KademliaNode(0, bits=8, k=2)
        node.observe(0)
        assert all(not bucket for bucket in node.buckets)

    def test_forget(self):
        node = KademliaNode(0, bits=8, k=2)
        node.observe(130)
        node.forget(130)
        assert not node.buckets[7]

    def test_closest_contacts_sorted_by_xor(self):
        node = KademliaNode(0, bits=8, k=8)
        for other in (3, 12, 130, 60):
            node.observe(other)
        contacts = node.closest_contacts(2, count=3)
        assert contacts == [3, 0, 12][:3] or contacts[0] == 3


class TestNetworkLookup:
    @pytest.fixture
    def network(self):
        rng = random.Random(5)
        network = KademliaNetwork(bits=12, k=4)
        for node in rng.sample(range(1 << 12), 40):
            network.add_node(node)
        return network

    def test_lookup_finds_globally_closest(self, network):
        rng = random.Random(6)
        for _ in range(200):
            key = rng.randrange(1 << 12)
            result = network.lookup(key)
            assert result.node == kademlia_responsible_node(network, key)

    def test_lookup_from_any_start(self, network):
        rng = random.Random(7)
        key = rng.randrange(1 << 12)
        expected = kademlia_responsible_node(network, key)
        for start in network.node_ids[:10]:
            assert network.lookup(key, start=start).node == expected

    def test_hops_reported(self, network):
        result = network.lookup(123)
        assert result.hops == len(result.path)
        assert result.hops >= 0

    def test_single_node(self):
        network = KademliaNetwork(bits=8)
        network.add_node(9)
        assert network.lookup(200).node == 9

    def test_empty_network(self):
        with pytest.raises(RuntimeError):
            KademliaNetwork(bits=8).lookup(1)

    def test_duplicate_rejected(self, network):
        with pytest.raises(ValueError):
            network.add_node(network.node_ids[0])

    def test_churn_preserves_correctness(self, network):
        rng = random.Random(8)
        victims = rng.sample(network.node_ids, 15)
        for node in victims:
            network.remove_node(node)
        for _ in range(150):
            key = rng.randrange(1 << 12)
            assert network.lookup(key).node == kademlia_responsible_node(network, key)

    def test_remove_missing(self, network):
        with pytest.raises(KeyError):
            network.remove_node(1 << 11 | 1 if (1 << 11 | 1) not in network else 7)


class TestBulkBuild:
    def test_matches_incremental_responsibility(self):
        rng = random.Random(9)
        ids = rng.sample(range(1 << 12), 50)
        bulk = KademliaNetwork.bulk_build(ids, bits=12, k=4)
        for _ in range(300):
            key = rng.randrange(1 << 12)
            assert bulk.lookup(key).node == kademlia_responsible_node(bulk, key)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            KademliaNetwork.bulk_build([3, 3], bits=8)

    def test_bucket_capacity_respected(self):
        ids = list(range(64))
        network = KademliaNetwork.bulk_build(ids, bits=8, k=3)
        for node_id in ids:
            for bucket in network.node(node_id).buckets:
                assert len(bucket) <= 3
