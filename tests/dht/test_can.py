"""Unit tests for the CAN substrate."""

import random

import pytest

from repro.dht.can import CANNetwork, Zone
from tests.dht.oracles import can_partition_is_valid, can_responsible_node


class TestZone:
    def test_contains_half_open(self):
        zone = Zone((0.0, 0.0), (0.5, 0.5))
        assert zone.contains((0.0, 0.0))
        assert zone.contains((0.49, 0.49))
        assert not zone.contains((0.5, 0.25))

    def test_split(self):
        zone = Zone((0.0, 0.0), (1.0, 1.0))
        first, second = zone.split(0)
        assert first.high[0] == 0.5 and second.low[0] == 0.5
        assert first.contains((0.25, 0.7)) and second.contains((0.75, 0.7))

    def test_touches_shared_face(self):
        left = Zone((0.0, 0.0), (0.5, 1.0))
        right = Zone((0.5, 0.0), (1.0, 1.0))
        assert left.touches(right) and right.touches(left)

    def test_touches_torus_wrap(self):
        left = Zone((0.0, 0.0), (0.25, 1.0))
        right = Zone((0.75, 0.0), (1.0, 1.0))
        assert left.touches(right)

    def test_corner_contact_is_not_adjacency(self):
        a = Zone((0.0, 0.0), (0.5, 0.5))
        b = Zone((0.5, 0.5), (1.0, 1.0))
        assert not a.touches(b)

    def test_center(self):
        assert Zone((0.0, 0.5), (0.5, 1.0)).center() == (0.25, 0.75)


class TestNetwork:
    @pytest.fixture
    def network(self):
        rng = random.Random(8)
        ids = sorted(rng.sample(range(1 << 16), 40))
        return CANNetwork.bulk_build(ids, bits=16, dimensions=2, seed=3)

    def test_partition_tiles_the_torus(self, network):
        assert can_partition_is_valid(network)

    def test_every_point_has_one_owner(self, network):
        rng = random.Random(9)
        for _ in range(200):
            point = (rng.random(), rng.random())
            owners = [
                node
                for node in network.node_ids
                if network.node(node).contains(point)
            ]
            assert len(owners) == 1

    def test_lookup_delivers_to_zone_owner(self, network):
        rng = random.Random(10)
        for _ in range(300):
            key = rng.randrange(1 << 16)
            result = network.lookup(key, start=rng.choice(network.node_ids))
            assert result.node == can_responsible_node(network, key)

    def test_hops_scale_like_sqrt_n(self, network):
        rng = random.Random(11)
        hops = [
            network.lookup(rng.randrange(1 << 16)).hops for _ in range(200)
        ]
        # O(d * N^(1/d)) = O(2 * sqrt(40)) ~ 12; average well below.
        assert sum(hops) / len(hops) < 12

    def test_key_point_deterministic_and_in_torus(self, network):
        for key in (0, 1, 12345, (1 << 16) - 1):
            point = network.key_point(key)
            assert point == network.key_point(key)
            assert all(0.0 <= coordinate < 1.0 for coordinate in point)

    def test_join_splits_a_zone(self):
        network = CANNetwork(bits=16, dimensions=2, seed=4)
        network.add_node(1)
        assert network.node(1) == Zone((0.0, 0.0), (1.0, 1.0))
        network.add_node(2)
        assert can_partition_is_valid(network)
        assert network._neighbors[1] == {2}

    def test_leave_restores_valid_partition(self, network):
        rng = random.Random(12)
        for victim in rng.sample(network.node_ids, 15):
            network.remove_node(victim)
            assert can_partition_is_valid(network)
        for _ in range(100):
            key = rng.randrange(1 << 16)
            assert network.lookup(key).node == can_responsible_node(network, key)

    def test_remove_last_node(self):
        network = CANNetwork(bits=8, dimensions=2)
        network.add_node(5)
        network.remove_node(5)
        assert network.node_ids == []

    def test_neighbors_symmetric(self, network):
        for node in network.node_ids:
            for neighbor in network._neighbors[node]:
                assert node in network._neighbors[neighbor]

    def test_duplicate_rejected(self, network):
        with pytest.raises(ValueError):
            network.add_node(network.node_ids[0])

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            CANNetwork(dimensions=0)

    def test_higher_dimension_routing(self):
        rng = random.Random(13)
        ids = sorted(rng.sample(range(1 << 24), 30))
        network = CANNetwork.bulk_build(ids, bits=24, dimensions=3, seed=5)
        assert can_partition_is_valid(network)
        for _ in range(150):
            key = rng.randrange(1 << 24)
            assert network.lookup(key).node == can_responsible_node(network, key)
