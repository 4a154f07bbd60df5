"""Unit tests for the identifier space and interval arithmetic."""

import pytest

from repro.dht.idspace import DEFAULT_BITS, IdSpace, hash_key, in_interval
from tests.dht.oracles import distance_clockwise, distance_xor


class TestHashKey:
    def test_deterministic(self):
        assert hash_key("abc") == hash_key("abc")

    def test_distinct_inputs_differ(self):
        assert hash_key("abc") != hash_key("abd")

    def test_range_default_bits(self):
        value = hash_key("anything")
        assert 0 <= value < (1 << DEFAULT_BITS)

    @pytest.mark.parametrize("bits", [8, 16, 32, 64, 159])
    def test_truncation_respects_bits(self, bits):
        for text in ("a", "b", "hello", "node-42"):
            assert 0 <= hash_key(text, bits) < (1 << bits)

    def test_truncation_keeps_high_bits(self):
        full = hash_key("x", 160)
        assert hash_key("x", 32) == full >> 128

    def test_unicode_input(self):
        assert hash_key("héllo-wörld") == hash_key("héllo-wörld")


class TestInInterval:
    def test_plain_interval(self):
        assert in_interval(5, 3, 8)
        assert not in_interval(3, 3, 8)
        assert not in_interval(8, 3, 8)

    def test_closed_endpoints(self):
        assert in_interval(3, 3, 8, left_closed=True)
        assert in_interval(8, 3, 8, right_closed=True)

    def test_wrapping_interval(self):
        # Interval (250, 5) on a 8-bit ring: 251..255, 0..4.
        assert in_interval(255, 250, 5)
        assert in_interval(2, 250, 5)
        assert not in_interval(100, 250, 5)

    def test_degenerate_whole_ring(self):
        # left == right denotes the whole ring minus the endpoint.
        assert in_interval(7, 3, 3)
        assert not in_interval(3, 3, 3)
        assert in_interval(3, 3, 3, left_closed=True, right_closed=True)


class TestIdSpace:
    def test_size(self):
        assert IdSpace(8).size == 256

    @pytest.mark.parametrize("bits", [0, -1, 300])
    def test_invalid_bits(self, bits):
        with pytest.raises(ValueError):
            IdSpace(bits)

    def test_contains(self):
        space = IdSpace(8)
        assert space.contains(0) and space.contains(255)
        assert not space.contains(256) and not space.contains(-1)

    def test_finger_start(self):
        space = IdSpace(8)
        assert space.finger_start(0, 0) == 1
        assert space.finger_start(0, 7) == 128
        assert space.finger_start(200, 7) == (200 + 128) % 256

    def test_distance_clockwise(self):
        space = IdSpace(8)
        assert distance_clockwise(space, 10, 20) == 10
        assert distance_clockwise(space, 20, 10) == 246
        assert distance_clockwise(space, 5, 5) == 0

    def test_distance_xor_symmetric(self):
        space = IdSpace(8)
        assert distance_xor(12, 200) == distance_xor(200, 12)
        assert distance_xor(7, 7) == 0
