"""Unit tests for the ideal consistent-hashing ring."""

import pytest

from repro.dht.ring import IdealRing


@pytest.fixture
def ring():
    ring = IdealRing(bits=8)
    for node in (10, 100, 200):
        ring.add_node(node)
    return ring


class TestMembership:
    def test_nodes_sorted(self, ring):
        assert ring.node_ids == [10, 100, 200]

    def test_len_and_contains(self, ring):
        assert len(ring) == 3
        assert 100 in ring
        assert 50 not in ring

    def test_duplicate_rejected(self, ring):
        with pytest.raises(ValueError):
            ring.add_node(100)

    def test_out_of_space_rejected(self, ring):
        with pytest.raises(ValueError):
            ring.add_node(256)

    def test_remove(self, ring):
        ring.remove_node(100)
        assert ring.node_ids == [10, 200]

    def test_remove_missing(self, ring):
        with pytest.raises(KeyError):
            ring.remove_node(42)


class TestLookup:
    def test_key_maps_to_clockwise_successor(self, ring):
        assert ring.lookup(50).node == 100
        assert ring.lookup(100).node == 100
        assert ring.lookup(150).node == 200

    def test_wraparound(self, ring):
        assert ring.lookup(250).node == 10
        assert ring.lookup(0).node == 10

    def test_single_hop(self, ring):
        result = ring.lookup(50)
        assert result.hops == 1
        assert result.path == (100,)

    def test_key_out_of_space(self, ring):
        with pytest.raises(ValueError):
            ring.lookup(256)

    def test_empty_ring(self):
        with pytest.raises(RuntimeError):
            IdealRing(bits=8).lookup(5)

    def test_lookup_many(self, ring):
        results = [ring.lookup(key) for key in (50, 150, 250)]
        assert [r.node for r in results] == [100, 200, 10]

    def test_consistent_hashing_stability(self, ring):
        """Adding a node only moves keys into the new node's arc."""
        before = {key: ring.lookup(key).node for key in range(256)}
        ring.add_node(150)
        after = {key: ring.lookup(key).node for key in range(256)}
        for key in range(256):
            if after[key] != before[key]:
                assert after[key] == 150
