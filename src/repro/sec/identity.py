"""Node identities: ed25519 keypairs and pubkey-derived node ids.

Backend selection is automatic: the ``cryptography`` package when it is
importable, otherwise the pure-python RFC 8032 implementation in
``repro.sec.ed25519``.  Both produce interoperable keys and signatures
(same seed -> same public key -> same signature bytes), so an identity
written on a box with ``cryptography`` verifies on a box without it.

Identities persist as a single ``identity.key`` file inside a node's
data directory (the durable-state path from the daemon), so a restarted
daemon keeps its node id.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Optional, Union

from repro.perf import counters
from repro.sec import ed25519 as _pure

SEED_BYTES = 32
PUBLIC_KEY_BYTES = 32
SIGNATURE_BYTES = 64

IDENTITY_FILENAME = "identity.key"

try:  # pragma: no cover - depends on the environment
    from cryptography.hazmat.primitives import serialization as _ser
    from cryptography.hazmat.primitives.asymmetric.ed25519 import (
        Ed25519PrivateKey as _CryptoPrivate,
    )
    from cryptography.hazmat.primitives.asymmetric.ed25519 import (
        Ed25519PublicKey as _CryptoPublic,
    )

    _HAVE_CRYPTOGRAPHY = True
except ImportError:  # pragma: no cover - depends on the environment
    _HAVE_CRYPTOGRAPHY = False


def _seed_from(seed: Union[bytes, int, str, None]) -> bytes:
    if seed is None:
        return os.urandom(SEED_BYTES)
    if isinstance(seed, bytes):
        if len(seed) != SEED_BYTES:
            raise ValueError(f"seed must be {SEED_BYTES} bytes, got {len(seed)}")
        return seed
    if isinstance(seed, int):
        return hashlib.sha256(b"repro.sec.seed:" + str(seed).encode("ascii")).digest()
    if isinstance(seed, str):
        return hashlib.sha256(b"repro.sec.seed:" + seed.encode("utf-8")).digest()
    raise TypeError(f"unsupported seed type: {type(seed).__name__}")


class NodeIdentity:
    """An ed25519 keypair plus the node id derived from its public key."""

    __slots__ = ("seed", "public_key", "backend", "_private")

    def __init__(self, seed: Union[bytes, int, str, None] = None, *, backend: Optional[str] = None):
        if backend is None:
            backend = "cryptography" if _HAVE_CRYPTOGRAPHY else "pure"
        if backend not in ("cryptography", "pure"):
            raise ValueError(f"unknown backend: {backend!r}")
        if backend == "cryptography" and not _HAVE_CRYPTOGRAPHY:
            raise ValueError("cryptography backend requested but not importable")
        self.seed = _seed_from(seed)
        self.backend = backend
        if backend == "cryptography":
            self._private = _CryptoPrivate.from_private_bytes(self.seed)
            self.public_key = self._private.public_key().public_bytes(
                _ser.Encoding.Raw, _ser.PublicFormat.Raw
            )
        else:
            self._private = None
            self.public_key = _pure.public_key(self.seed)

    def sign(self, data: bytes) -> bytes:
        counters.sec_sign_calls += 1
        if self._private is not None:
            return self._private.sign(bytes(data))
        return _pure.sign(self.seed, bytes(data))

    def node_id(self, bits: int = 64) -> int:
        """Derive a DHT node id from the public key hash."""
        if not 1 <= bits <= 256:
            raise ValueError("bits must be in [1, 256]")
        digest = hashlib.sha256(self.public_key).digest()
        return int.from_bytes(digest, "big") >> (256 - bits)

    # -- persistence -------------------------------------------------

    def save(self, directory: Union[str, Path]) -> Path:
        """Write the seed to ``<directory>/identity.key`` (0600).

        The file is *created* with mode 0600 (O_CREAT with the mode, not
        create-then-chmod), so the secret seed is never readable by
        other users, not even for the instant between the two calls.
        """
        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        key_path = path / IDENTITY_FILENAME
        fd = os.open(
            key_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600
        )
        with os.fdopen(fd, "w", encoding="ascii") as handle:
            handle.write(self.seed.hex() + "\n")
        # A pre-existing file keeps its old mode under O_CREAT: clamp it.
        os.chmod(key_path, 0o600)
        return key_path

    @classmethod
    def load(cls, directory: Union[str, Path], *, backend: Optional[str] = None) -> "NodeIdentity":
        key_path = Path(directory) / IDENTITY_FILENAME
        text = key_path.read_text(encoding="ascii").strip()
        seed = bytes.fromhex(text)
        return cls(seed, backend=backend)

    @classmethod
    def load_or_create(
        cls, directory: Union[str, Path], *, backend: Optional[str] = None
    ) -> "NodeIdentity":
        key_path = Path(directory) / IDENTITY_FILENAME
        if key_path.exists():
            return cls.load(directory, backend=backend)
        identity = cls(backend=backend)
        identity.save(directory)
        return identity


def verify_signature(public_key: bytes, data: bytes, signature: bytes) -> bool:
    """Verify ``signature`` over ``data``; never raises on bad input."""
    counters.sec_verify_calls += 1
    public_key = bytes(public_key)
    data = bytes(data)
    signature = bytes(signature)
    if len(public_key) != PUBLIC_KEY_BYTES or len(signature) != SIGNATURE_BYTES:
        return False
    if _HAVE_CRYPTOGRAPHY:
        try:
            _CryptoPublic.from_public_bytes(public_key).verify(signature, data)
            return True
        except Exception:
            return False
    return _pure.verify(public_key, data, signature)
