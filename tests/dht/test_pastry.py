"""Unit tests for the Pastry substrate."""

import random

import pytest

from repro.dht.pastry import PastryNetwork, PastryNode
from tests.dht.oracles import pastry_responsible_node


class TestNodeState:
    def test_digits(self):
        node = PastryNode(0xA3, bits=8, digit_bits=4, leaf_size=4)
        assert node.digit(0xA3, 0) == 0xA
        assert node.digit(0xA3, 1) == 0x3

    def test_shared_prefix_length(self):
        node = PastryNode(0xA3, bits=8, digit_bits=4, leaf_size=4)
        assert node.shared_prefix_length(0xA7) == 1
        assert node.shared_prefix_length(0xB3) == 0
        assert node.shared_prefix_length(0xA3) == 2

    def test_observe_fills_routing_table(self):
        node = PastryNode(0xA3, bits=8, digit_bits=4, leaf_size=4)
        node.observe(0xB1)
        assert node.routing_table[0][0xB] == 0xB1
        node.observe(0xB9)  # same cell already taken: first-come
        assert node.routing_table[0][0xB] == 0xB1

    def test_observe_self_noop(self):
        node = PastryNode(0xA3, bits=8, digit_bits=4, leaf_size=4)
        node.observe(0xA3)
        assert all(entry is None for row in node.routing_table for entry in row)

    def test_forget(self):
        node = PastryNode(0xA3, bits=8, digit_bits=4, leaf_size=4)
        node.observe(0xB1)
        node.forget(0xB1)
        assert node.routing_table[0][0xB] is None


class TestNetwork:
    @pytest.fixture
    def network(self):
        rng = random.Random(2)
        ids = sorted(rng.sample(range(1 << 16), 48))
        return PastryNetwork.bulk_build(ids, bits=16, digit_bits=4, leaf_size=8)

    def test_lookup_finds_numerically_closest(self, network):
        rng = random.Random(3)
        for _ in range(300):
            key = rng.randrange(1 << 16)
            result = network.lookup(key, start=rng.choice(network.node_ids))
            assert result.node == pastry_responsible_node(network, key)

    def test_prefix_routing_is_logarithmic(self, network):
        rng = random.Random(4)
        hops = [
            network.lookup(rng.randrange(1 << 16)).hops for _ in range(200)
        ]
        # log_16(48) < 2 digits + leaf delivery: small and bounded.
        assert sum(hops) / len(hops) < 6
        assert max(hops) < 12

    def test_join_keeps_correctness(self, network):
        rng = random.Random(5)
        for fresh in rng.sample(range(1 << 16), 8):
            if fresh not in network:
                network.add_node(fresh)
        for _ in range(150):
            key = rng.randrange(1 << 16)
            assert network.lookup(key).node == pastry_responsible_node(network, key)

    def test_leave_keeps_correctness(self, network):
        rng = random.Random(6)
        for victim in rng.sample(network.node_ids, 16):
            network.remove_node(victim)
        for _ in range(150):
            key = rng.randrange(1 << 16)
            assert network.lookup(key).node == pastry_responsible_node(network, key)

    def test_single_node(self):
        network = PastryNetwork(bits=8, digit_bits=4, leaf_size=4)
        network.add_node(9)
        assert network.lookup(200).node == 9

    def test_duplicate_rejected(self, network):
        with pytest.raises(ValueError):
            network.add_node(network.node_ids[0])

    def test_remove_missing(self, network):
        with pytest.raises(KeyError):
            network.remove_node(-1 & 0xFFFF if (-1 & 0xFFFF) not in network else 0)

    def test_bits_digit_alignment(self):
        with pytest.raises(ValueError):
            PastryNetwork(bits=10, digit_bits=4)

    def test_leaf_sets_bracket_neighbours(self, network):
        ordered = network.node_ids
        for position, node_id in enumerate(ordered):
            peer = network.node(node_id)
            expected_below = ordered[max(0, position - 4) : position]
            assert peer.leaf_below == expected_below
