"""Identifier space and hashing for DHT keys.

All substrates share one m-bit circular identifier space.  Keys are query
strings in canonical form; ``h(descriptor)`` / ``h(query)`` (the paper's
hash function mapping identifiers to numeric keys) is SHA-1 truncated to
the space's width, which both Chord and Kademlia used in their original
papers.
"""

from __future__ import annotations

import hashlib

#: Default identifier width in bits.  160 matches SHA-1/Chord; tests use
#: narrower spaces to exercise wrap-around arithmetic.
DEFAULT_BITS = 160


def hash_key(text: str, bits: int = DEFAULT_BITS) -> int:
    """Hash a textual key into an m-bit numeric identifier."""
    digest = hashlib.sha1(text.encode("utf-8")).digest()
    value = int.from_bytes(digest, "big")
    if bits >= 160:
        return value
    return value >> (160 - bits)


def in_interval(
    value: int,
    left: int,
    right: int,
    left_closed: bool = False,
    right_closed: bool = False,
) -> bool:
    """Membership test on the circular interval from ``left`` to ``right``.

    Intervals wrap around zero; when ``left == right`` the interval spans
    the whole ring (minus the endpoints unless closed), matching Chord's
    conventions for a single-node ring.
    """
    if left_closed and value == left:
        return True
    if right_closed and value == right:
        return True
    if left == right:
        # Whole ring (exclusive of the endpoint unless closed above).
        return value != left or (left_closed and right_closed)
    if left < right:
        return left < value < right
    return value > left or value < right


class IdSpace:
    """An m-bit circular identifier space with modular arithmetic."""

    def __init__(self, bits: int = DEFAULT_BITS) -> None:
        if not 1 <= bits <= 256:
            raise ValueError(f"bits must be in [1, 256], got {bits}")
        self.bits = bits
        self.size = 1 << bits

    def contains(self, value: int) -> bool:
        """True when the value is a valid identifier of this space."""
        return 0 <= value < self.size

    def finger_start(self, node: int, index: int) -> int:
        """Start of Chord finger ``index`` (0-based): node + 2^index."""
        return (node + (1 << index)) % self.size

    def distance_clockwise(self, source: int, target: int) -> int:
        """Clockwise distance from ``source`` to ``target`` on the ring."""
        return (target - source) % self.size

    def distance_xor(self, left: int, right: int) -> int:
        """Kademlia's symmetric XOR distance."""
        return left ^ right
