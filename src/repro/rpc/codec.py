"""Versioned wire codec for :class:`repro.net.message.Message`.

The simulation passes ``Message`` objects between Python callables; real
nodes pass bytes between sockets.  This module is the deterministic
translation between the two: every message kind round-trips through
``encode_message`` / ``decode_message`` bit-exactly, and the framing is
explicit enough that the *measured* wire size can be cross-checked
against the payload-derived estimate :attr:`Message.size_bytes` uses for
Figure 12's traffic accounting (see :func:`measured_size_bytes` and
:func:`estimate_delta`).

Frame format (version 1)
========================

Every unit on the wire is one *frame*.  All integers are big-endian and
unsigned; all text is UTF-8.  A frame starts with a fixed 12-byte
envelope::

    offset  size  field
    ------  ----  -----------------------------------------------------
    0       2     magic, the bytes "RP" (0x52 0x50)
    2       1     wire version (WIRE_VERSION, currently 1)
    3       1     frame type: 1=REQUEST 2=RESPONSE 3=ACK 4=ERROR
    4       8     request id (u64) correlating a reply with its request

followed by a type-dependent body:

- **REQUEST / RESPONSE** carry one encoded ``Message``::

    offset  size  field
    ------  ----  -----------------------------------------------------
    0       1     message kind code (table below)
    1       1     traffic category code: 1=normal 2=cache 3=maintenance
    2       1     flags, bit 0: explicit_size present
    3       2     route_hops (u16, >= 1)
    5       2     source length Ls, then Ls bytes UTF-8
    7+Ls    2     destination length Ld, then Ld bytes UTF-8
    9+Ls+Ld 2     payload entry count N
    ...           N entries, each: u32 byte length + UTF-8 bytes
    [tail]  8     explicit_size (u64), only when flag bit 0 is set

  Kind codes: query_request=1, query_response=2, index_insert=3,
  index_remove=4, cache_insert=5, file_request=6, file_response=7,
  control=8.

- **ACK** has an empty body: the request was delivered and its handler
  produced no response (the wire form of ``handler(message) -> None``;
  without it a UDP sender could not tell "no response" from "lost").

- **ERROR** carries a delivery-failure reason: u16 length + UTF-8 reason
  string (one of the :class:`repro.net.transport.DeliveryError` reasons,
  or the codec-internal ``oversized`` that asks the sender to repeat the
  request over TCP).

Signed frames (version 2)
=========================

A frame may optionally carry an ed25519 signature proving which keypair
produced it (see :mod:`repro.sec`).  Signed frames stamp wire version 2
into the envelope and append a fixed 98-byte trailer after the body::

    offset  size  field
    ------  ----  -----------------------------------------------------
    0       1     public key length (must be 32)
    1       32    ed25519 public key
    33      1     signature length (must be 64)
    34      64    ed25519 signature

The signature covers every frame byte up to and including the signature
length marker (envelope, body, public key) -- i.e. ``frame[:-64]`` -- so
neither the request id, the body, nor the claimed key can be swapped
without invalidating it.  REQUEST/RESPONSE bodies inside a signed frame
set flag bit 1 (``_FLAG_SIGNED``); the decoder enforces that the flag
and the trailer agree, and a version-1 decoder rejects the flag as
unknown, so a signed frame can never be replayed down-versioned.  The
codec only checks *structure* (lengths, flag/trailer agreement);
verifying the signature itself is the caller's job via
:func:`repro.sec.verify_signature` over ``SignedEnvelope.signed``.
Unsigned frames keep encoding exactly as version 1, bit-identically.

**Replay is out of scope of the frame format.**  A signed frame carries
no freshness field (no counter, timestamp, or nonce), so a recorded
frame remains a valid signed frame forever.  In practice a replayed
*request* is absorbed by the server's ``(addr, request id)`` dedupe
cache within its TTL/capacity bounds and re-executed past them, and a
replayed *response* is only accepted while its request id is pending --
adding per-peer freshness state would couple the stateless codec to
connection state for an attack the index workload (idempotent inserts,
read-only queries) gives little leverage to.  Deployments that need
replay protection should wrap frames in a channel that provides it.

Transport mapping: a frame travels as one UDP datagram, or over a TCP
stream prefixed with a u32 frame length (``encode_stream`` /
:class:`StreamUnframer`).  Decoding rejects bad magic, unknown versions,
unknown type/kind/category codes, truncated bodies, and trailing bytes
with :class:`CodecError` -- a real socket can deliver garbage, so the
decoder never raises anything else.  Decoders accept ``bytes`` or
``memoryview`` input: the stream unframer hands out zero-copy views
over the receive buffer on its fast path.

Determinism: encoding depends only on the message's fields (no clocks,
no randomness), so equal messages encode to equal bytes and the measured
sizes used by the byte-accounting cross-check are reproducible.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

from repro.net.message import Message, MessageKind, TrafficCategory

if TYPE_CHECKING:  # layering: the codec never imports crypto at runtime
    from repro.sec.identity import NodeIdentity

#: Bytes-like frame input: decoders accept either without copying.
Buffer = Union[bytes, memoryview]

#: First bytes of every frame.
MAGIC = b"RP"
#: Wire protocol version stamped into (and required of) every frame.
WIRE_VERSION = 1
#: Wire version of frames carrying the signed-envelope trailer.
WIRE_VERSION_SIGNED = 2

#: Frame types.
FRAME_REQUEST = 1
FRAME_RESPONSE = 2
FRAME_ACK = 3
FRAME_ERROR = 4
_FRAME_TYPES = (FRAME_REQUEST, FRAME_RESPONSE, FRAME_ACK, FRAME_ERROR)

#: Fixed envelope size: magic(2) + version(1) + type(1) + request id(8).
ENVELOPE_BYTES = 12
#: Fixed message-body framing: kind(1) + category(1) + flags(1) +
#: route_hops(2) + source length(2) + destination length(2) + count(2).
MESSAGE_FIXED_BYTES = 11
#: Per-payload-entry framing on the wire: the u32 length prefix.  This
#: deliberately equals ``message.PER_ENTRY_BYTES`` so the estimate and
#: the measurement agree per entry.
WIRE_PER_ENTRY_BYTES = 4

#: Reason string of the codec-internal oversized-response error (not a
#: DeliveryError reason: the transport retries over TCP transparently).
OVERSIZED_REASON = "oversized"

_FLAG_EXPLICIT_SIZE = 0x01
#: Set on message bodies travelling inside a signed (version-2) frame.
#: A version-1 decoder rejects it as an unknown flag bit by design.
_FLAG_SIGNED = 0x02
_KNOWN_FLAGS = _FLAG_EXPLICIT_SIZE | _FLAG_SIGNED

#: Signed-trailer field sizes (ed25519).
SIGNED_PUBKEY_BYTES = 32
SIGNED_SIGNATURE_BYTES = 64
#: Total signed-trailer size: len byte + pubkey + len byte + signature.
SIGNED_TRAILER_BYTES = 1 + SIGNED_PUBKEY_BYTES + 1 + SIGNED_SIGNATURE_BYTES

#: Stable wire codes for every message kind.  New kinds append; existing
#: codes never change (they are the versioned part of the protocol).
KIND_CODES: dict[MessageKind, int] = {
    MessageKind.QUERY_REQUEST: 1,
    MessageKind.QUERY_RESPONSE: 2,
    MessageKind.INDEX_INSERT: 3,
    MessageKind.INDEX_REMOVE: 4,
    MessageKind.CACHE_INSERT: 5,
    MessageKind.FILE_REQUEST: 6,
    MessageKind.FILE_RESPONSE: 7,
    MessageKind.CONTROL: 8,
}
_KINDS_BY_CODE = {code: kind for kind, code in KIND_CODES.items()}

CATEGORY_CODES: dict[TrafficCategory, int] = {
    TrafficCategory.NORMAL: 1,
    TrafficCategory.CACHE: 2,
    TrafficCategory.MAINTENANCE: 3,
}
_CATEGORIES_BY_CODE = {code: cat for cat, code in CATEGORY_CODES.items()}

_U16_MAX = 0xFFFF
_U32_MAX = 0xFFFFFFFF
_U64_MAX = 0xFFFFFFFFFFFFFFFF


class CodecError(ValueError):
    """Raised for any frame the decoder cannot accept (truncated bytes,
    bad magic, unknown version or codes, trailing garbage) and for any
    message the encoder cannot represent (field limits exceeded)."""


# -- message body -----------------------------------------------------------


def encode_message(message: Message, *, signed: bool = False) -> bytes:
    """Serialize one message into a REQUEST/RESPONSE frame body.

    ``signed=True`` sets the signed-flag bit: the body is destined for a
    version-2 frame whose trailer :func:`sign_frame` appends.
    """
    kind_code = KIND_CODES.get(message.kind)
    if kind_code is None:  # pragma: no cover - enum is closed today
        raise CodecError(f"kind has no wire code: {message.kind!r}")
    category_code = CATEGORY_CODES.get(message.category)
    if category_code is None:  # pragma: no cover - enum is closed today
        raise CodecError(f"category has no wire code: {message.category!r}")
    hops = message.route_hops
    if not 1 <= hops <= _U16_MAX:
        raise CodecError(f"route_hops out of wire range [1, 65535]: {hops}")
    source = message.source.encode("utf-8")
    destination = message.destination.encode("utf-8")
    if len(source) > _U16_MAX or len(destination) > _U16_MAX:
        raise CodecError("endpoint name exceeds 65535 UTF-8 bytes")
    if len(message.payload) > _U16_MAX:
        raise CodecError("payload exceeds 65535 entries")
    flags = _FLAG_SIGNED if signed else 0
    if message.explicit_size is not None:
        if not 0 <= message.explicit_size <= _U64_MAX:
            raise CodecError(
                f"explicit_size out of u64 range: {message.explicit_size}"
            )
        flags |= _FLAG_EXPLICIT_SIZE
    parts = [
        struct.pack(
            ">BBBHH", kind_code, category_code, flags, hops, len(source)
        ),
        source,
        struct.pack(">H", len(destination)),
        destination,
        struct.pack(">H", len(message.payload)),
    ]
    for entry in message.payload:
        data = entry.encode("utf-8")
        if len(data) > _U32_MAX:
            raise CodecError("payload entry exceeds u32 byte length")
        parts.append(struct.pack(">I", len(data)))
        parts.append(data)
    if message.explicit_size is not None:
        parts.append(struct.pack(">Q", message.explicit_size))
    return b"".join(parts)


class _Reader:
    """Bounds-checked cursor over a frame body."""

    __slots__ = ("data", "pos")

    def __init__(self, data: Buffer) -> None:
        self.data = data
        self.pos = 0

    def take(self, count: int) -> Buffer:
        end = self.pos + count
        if end > len(self.data):
            raise CodecError(
                f"truncated frame: wanted {count} bytes at offset "
                f"{self.pos}, have {len(self.data) - self.pos}"
            )
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return int.from_bytes(self.take(2), "big")

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def u64(self) -> int:
        return int.from_bytes(self.take(8), "big")

    def text(self, count: int) -> str:
        try:
            # str(buffer, encoding) decodes bytes and memoryview alike.
            return str(self.take(count), "utf-8")
        except UnicodeDecodeError as error:
            raise CodecError(f"invalid UTF-8 in frame: {error}") from None

    def done(self) -> None:
        if self.pos != len(self.data):
            raise CodecError(
                f"{len(self.data) - self.pos} trailing bytes after frame body"
            )


def decode_message(body: Buffer, *, signed: bool = False) -> Message:
    """Parse a REQUEST/RESPONSE frame body back into a message.

    ``signed`` states whether the enclosing frame carried the version-2
    signature trailer; the body's signed-flag bit must agree, so a
    trailer cannot be stripped from (or bolted onto) a body unnoticed.
    In the default unsigned mode the signed flag is simply unknown --
    exactly the version-1 decoder behavior.
    """
    reader = _Reader(body)
    kind_code = reader.u8()
    kind = _KINDS_BY_CODE.get(kind_code)
    if kind is None:
        raise CodecError(f"unknown message kind code: {kind_code}")
    category_code = reader.u8()
    category = _CATEGORIES_BY_CODE.get(category_code)
    if category is None:
        raise CodecError(f"unknown traffic category code: {category_code}")
    flags = reader.u8()
    known = _KNOWN_FLAGS if signed else _FLAG_EXPLICIT_SIZE
    if flags & ~known:
        raise CodecError(f"unknown flag bits set: {flags:#x}")
    if signed and not flags & _FLAG_SIGNED:
        raise CodecError("signed frame carries a body without the signed flag")
    hops = reader.u16()
    if hops < 1:
        raise CodecError("route_hops must be >= 1 on the wire")
    source = reader.text(reader.u16())
    destination = reader.text(reader.u16())
    count = reader.u16()
    payload = tuple(reader.text(reader.u32()) for _ in range(count))
    explicit_size = reader.u64() if flags & _FLAG_EXPLICIT_SIZE else None
    reader.done()
    return Message(
        kind=kind,
        source=source,
        destination=destination,
        payload=payload,
        explicit_size=explicit_size,
        route_hops=hops,
        category=category,
    )


# -- envelope ---------------------------------------------------------------


def encode_frame(frame_type: int, request_id: int, body: bytes = b"") -> bytes:
    """Wrap a body in the 12-byte envelope."""
    if frame_type not in _FRAME_TYPES:
        raise CodecError(f"unknown frame type: {frame_type}")
    if not 0 <= request_id <= _U64_MAX:
        raise CodecError(f"request id out of u64 range: {request_id}")
    return MAGIC + bytes((WIRE_VERSION, frame_type)) + request_id.to_bytes(
        8, "big"
    ) + body


@dataclass(frozen=True)
class SignedEnvelope:
    """The signature trailer of a version-2 frame, structurally valid.

    ``signed`` is the exact byte span the signature covers
    (``frame[:-64]``); pass the triple to
    :func:`repro.sec.verify_signature` to check authenticity.
    """

    public_key: bytes
    signature: bytes
    signed: bytes


def sign_frame(
    frame_type: int,
    request_id: int,
    body: bytes,
    identity: "NodeIdentity",
) -> bytes:
    """Build a version-2 frame signed by ``identity``.

    REQUEST/RESPONSE bodies must have been encoded with
    ``encode_message(..., signed=True)`` so the flag bit matches the
    trailer; ACK/ERROR bodies carry no flags and sign as-is.
    """
    if frame_type not in _FRAME_TYPES:
        raise CodecError(f"unknown frame type: {frame_type}")
    if not 0 <= request_id <= _U64_MAX:
        raise CodecError(f"request id out of u64 range: {request_id}")
    if len(identity.public_key) != SIGNED_PUBKEY_BYTES:
        raise CodecError(
            f"public key must be {SIGNED_PUBKEY_BYTES} bytes, "
            f"got {len(identity.public_key)}"
        )
    span = (
        MAGIC
        + bytes((WIRE_VERSION_SIGNED, frame_type))
        + request_id.to_bytes(8, "big")
        + body
        + bytes((SIGNED_PUBKEY_BYTES,))
        + identity.public_key
        + bytes((SIGNED_SIGNATURE_BYTES,))
    )
    signature = identity.sign(span)
    if len(signature) != SIGNED_SIGNATURE_BYTES:  # pragma: no cover - defense
        raise CodecError(
            f"signature must be {SIGNED_SIGNATURE_BYTES} bytes, "
            f"got {len(signature)}"
        )
    return span + signature


def decode_frame_signed(
    data: Buffer,
) -> tuple[int, int, Buffer, Optional[SignedEnvelope]]:
    """Split a frame into ``(frame_type, request_id, body, envelope)``.

    Version-1 frames return ``envelope=None``; version-2 frames have
    their 98-byte trailer bounds-checked (exact length markers, nothing
    left over for the body to go negative) and stripped, with the
    envelope carrying the public key, the signature, and the signed
    span.  The body is *not* parsed here -- REQUEST/RESPONSE bodies go
    through :func:`decode_message`, ERROR bodies through
    :func:`decode_error` -- and the signature is *not* verified here:
    the codec has no crypto, only structure.
    """
    if len(data) < ENVELOPE_BYTES:
        raise CodecError(
            f"truncated envelope: {len(data)} < {ENVELOPE_BYTES} bytes"
        )
    if data[:2] != MAGIC:
        raise CodecError(f"bad magic: {bytes(data[:2])!r}")
    version = data[2]
    if version not in (WIRE_VERSION, WIRE_VERSION_SIGNED):
        raise CodecError(
            f"unsupported wire version {version} (speak {WIRE_VERSION} "
            f"or {WIRE_VERSION_SIGNED})"
        )
    frame_type = data[3]
    if frame_type not in _FRAME_TYPES:
        raise CodecError(f"unknown frame type: {frame_type}")
    request_id = int.from_bytes(data[4:12], "big")
    if version == WIRE_VERSION:
        return frame_type, request_id, data[ENVELOPE_BYTES:], None
    if len(data) < ENVELOPE_BYTES + SIGNED_TRAILER_BYTES:
        raise CodecError(
            f"truncated signed trailer: frame of {len(data)} bytes cannot "
            f"hold envelope + {SIGNED_TRAILER_BYTES}-byte trailer"
        )
    trailer_at = len(data) - SIGNED_TRAILER_BYTES
    if data[trailer_at] != SIGNED_PUBKEY_BYTES:
        raise CodecError(
            f"bad public key length marker: {data[trailer_at]} "
            f"(must be {SIGNED_PUBKEY_BYTES})"
        )
    sig_len_at = trailer_at + 1 + SIGNED_PUBKEY_BYTES
    if data[sig_len_at] != SIGNED_SIGNATURE_BYTES:
        raise CodecError(
            f"bad signature length marker: {data[sig_len_at]} "
            f"(must be {SIGNED_SIGNATURE_BYTES})"
        )
    envelope = SignedEnvelope(
        public_key=bytes(data[trailer_at + 1:sig_len_at]),
        signature=bytes(data[sig_len_at + 1:]),
        signed=bytes(data[:sig_len_at + 1]),
    )
    return frame_type, request_id, data[ENVELOPE_BYTES:trailer_at], envelope


def decode_frame(data: Buffer) -> tuple[int, int, Buffer]:
    """Split a frame into ``(frame_type, request_id, body)``.

    Accepts both wire versions, discarding the signature trailer of a
    version-2 frame after the structural checks; callers that care who
    signed use :func:`decode_frame_signed` instead.
    """
    frame_type, request_id, body, _ = decode_frame_signed(data)
    return frame_type, request_id, body


def encode_error(reason: str) -> bytes:
    """Serialize an ERROR frame body (u16 length + UTF-8 reason)."""
    data = reason.encode("utf-8")
    if len(data) > _U16_MAX:
        raise CodecError("error reason exceeds 65535 UTF-8 bytes")
    return struct.pack(">H", len(data)) + data


def decode_error(body: bytes) -> str:
    """Parse an ERROR frame body back into its reason string."""
    reader = _Reader(body)
    reason = reader.text(reader.u16())
    reader.done()
    return reason


# -- stream framing (TCP) ---------------------------------------------------

#: Size of the frame-length prefix on stream transports.
STREAM_PREFIX_BYTES = 4


def encode_stream(frame: bytes) -> bytes:
    """Prefix a frame with its u32 length for a stream transport."""
    if len(frame) > _U32_MAX:
        raise CodecError("frame exceeds u32 stream length")
    return len(frame).to_bytes(STREAM_PREFIX_BYTES, "big") + frame


class StreamUnframer:
    """Incremental splitter of a byte stream into frames.

    Feed arbitrary chunks; complete frames come back in order.  TCP may
    deliver half a frame or three at once -- this class owns the
    reassembly buffer so the transport code never slices bytes itself.

    Zero-copy fast path: when nothing is buffered (the overwhelmingly
    common case -- most reads start on a frame boundary), every complete
    frame comes back as a :class:`memoryview` over the chunk the caller
    passed in, with no bytes copied; only a trailing partial frame is
    copied into the reassembly buffer.  The views pin the source chunk
    alive until the caller drops them, which decoders do within the same
    receive callback.  The slow path (resuming a split frame) still
    copies, as it must.
    """

    def __init__(self, max_frame_bytes: int = 64 * 1024 * 1024) -> None:
        self._buffer = bytearray()
        self._max = max_frame_bytes

    def feed(self, data: bytes) -> list[Buffer]:
        """Append stream bytes; return every frame completed by them."""
        frames: list[Buffer] = []
        if not self._buffer:
            view = memoryview(data)
            size = len(view)
            pos = 0
            while size - pos >= STREAM_PREFIX_BYTES:
                length = int.from_bytes(
                    view[pos:pos + STREAM_PREFIX_BYTES], "big"
                )
                if length > self._max:
                    raise CodecError(
                        f"stream frame of {length} bytes exceeds "
                        f"limit {self._max}"
                    )
                end = pos + STREAM_PREFIX_BYTES + length
                if end > size:
                    break
                frames.append(view[pos + STREAM_PREFIX_BYTES:end])
                pos = end
            if pos < size:
                self._buffer.extend(view[pos:])
            return frames
        self._buffer.extend(data)
        while len(self._buffer) >= STREAM_PREFIX_BYTES:
            length = int.from_bytes(self._buffer[:STREAM_PREFIX_BYTES], "big")
            if length > self._max:
                raise CodecError(
                    f"stream frame of {length} bytes exceeds limit {self._max}"
                )
            end = STREAM_PREFIX_BYTES + length
            if len(self._buffer) < end:
                break
            frames.append(bytes(self._buffer[STREAM_PREFIX_BYTES:end]))
            del self._buffer[:end]
        return frames

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buffer)
