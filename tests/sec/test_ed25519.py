"""The pure-python ed25519 fallback, checked against RFC 8032 and ``cryptography``.

Where ``cryptography`` is installed, ``NodeIdentity`` and
``verify_signature`` never call the pure module, yet a box without the
package (CI's signed loopback smoke among them) verifies every frame
with it.  The RFC vector runs everywhere; the differential test runs
wherever ``cryptography`` does.
"""

import random

import pytest

from repro.sec import ed25519

try:
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey
except ImportError:  # pragma: no cover - depends on the box
    Ed25519PublicKey = None

# RFC 8032 section 7.1, TEST 1 (empty message).
RFC_SEED = bytes.fromhex(
    "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"
)
RFC_PUBLIC = bytes.fromhex(
    "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
)
RFC_SIGNATURE = bytes.fromhex(
    "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065224901555"
    "fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
)


def flip(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


class TestRfc8032:
    def test_public_key(self):
        assert ed25519.public_key(RFC_SEED) == RFC_PUBLIC

    def test_signature(self):
        assert ed25519.sign(RFC_SEED, b"") == RFC_SIGNATURE

    def test_verify(self):
        assert ed25519.verify(RFC_PUBLIC, b"", RFC_SIGNATURE)

    @pytest.mark.parametrize("bit", [0, 255, 256, 511])
    def test_flipped_signature_rejected(self, bit):
        assert not ed25519.verify(RFC_PUBLIC, b"", flip(RFC_SIGNATURE, bit))

    def test_other_message_rejected(self):
        assert not ed25519.verify(RFC_PUBLIC, b"x", RFC_SIGNATURE)

    def test_malformed_lengths_rejected(self):
        assert not ed25519.verify(RFC_PUBLIC[:31], b"", RFC_SIGNATURE)
        assert not ed25519.verify(RFC_PUBLIC, b"", RFC_SIGNATURE[:63])

    def test_non_canonical_point_rejected(self):
        # y = p (>= the field prime) is not a valid encoding.
        y_is_p = (2**255 - 19).to_bytes(32, "little")
        assert not ed25519.verify(y_is_p, b"", RFC_SIGNATURE)


def reference_verify(public: bytes, message: bytes, signature: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public).verify(signature, message)
    except Exception:
        return False
    return True


@pytest.mark.skipif(Ed25519PublicKey is None, reason="cryptography not installed")
def test_pure_verify_agrees_with_cryptography():
    """Seeded keys and messages: valid signatures, then bit-flipped
    signatures and keys and a changed message, each verified by both."""
    rng = random.Random(8032)
    cases = 0
    for _ in range(12):
        seed = rng.randbytes(32)
        message = rng.randbytes(rng.randrange(0, 64))
        public = ed25519.public_key(seed)
        signature = ed25519.sign(seed, message)
        variants = [
            (public, message, signature),
            (public, message + b"!", signature),
            (public, message, flip(signature, rng.randrange(256))),
            (public, message, flip(signature, 256 + rng.randrange(256))),
            (flip(public, rng.randrange(256)), message, signature),
        ]
        for variant in variants:
            assert ed25519.verify(*variant) == reference_verify(*variant), variant
            cases += 1
        assert ed25519.verify(public, message, signature)
    assert cases == 60
