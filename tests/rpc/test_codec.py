"""Unit tests for the versioned wire codec (repro.rpc.codec)."""

import pytest

from repro.net.message import Message, MessageKind, TrafficCategory
from repro.rpc.codec import (
    ENVELOPE_BYTES,
    FRAME_ACK,
    FRAME_ERROR,
    FRAME_REQUEST,
    FRAME_RESPONSE,
    MAGIC,
    WIRE_VERSION,
    CodecError,
    StreamUnframer,
    decode_error,
    decode_frame,
    decode_message,
    encode_error,
    encode_frame,
    encode_message,
    encode_stream,
)


def sample_message(**overrides):
    fields = dict(
        kind=MessageKind.QUERY_REQUEST,
        source="user:0",
        destination="node:2a",
        payload=("author=knuth",),
    )
    fields.update(overrides)
    return Message(**fields)


class TestMessageRoundTrip:
    @pytest.mark.parametrize("kind", list(MessageKind))
    def test_every_kind_round_trips(self, kind):
        message = sample_message(kind=kind)
        assert decode_message(encode_message(message)) == message

    def test_empty_payload(self):
        message = sample_message(payload=())
        assert decode_message(encode_message(message)) == message

    def test_unicode_payload_and_names(self):
        message = sample_message(
            source="user:héllo",
            destination="node:ünïcode",
            payload=("author=Бо́рхес", "title=文字", ""),
        )
        assert decode_message(encode_message(message)) == message

    def test_route_hops_survive(self):
        message = sample_message(route_hops=17)
        assert decode_message(encode_message(message)).route_hops == 17

    def test_category_override_survives(self):
        # CONTROL is maintenance by default; a forced category must win.
        message = sample_message(
            kind=MessageKind.CONTROL, category=TrafficCategory.NORMAL
        )
        assert (
            decode_message(encode_message(message)).category
            is TrafficCategory.NORMAL
        )

    def test_encoding_is_deterministic(self):
        assert encode_message(sample_message()) == encode_message(
            sample_message()
        )


class TestEncodeLimits:
    def test_route_hops_zero_rejected(self):
        # The dataclass allows it; the wire format does not.
        message = sample_message(route_hops=0)
        with pytest.raises(CodecError):
            encode_message(message)

    def test_route_hops_above_u16_rejected(self):
        with pytest.raises(CodecError):
            encode_message(sample_message(route_hops=70000))

    def test_oversized_endpoint_name_rejected(self):
        with pytest.raises(CodecError):
            encode_message(sample_message(source="s" * 70000))


class TestDecodeRejection:
    def test_truncated_body_rejected(self):
        body = encode_message(sample_message())
        for cut in (1, len(body) // 2, len(body) - 1):
            with pytest.raises(CodecError):
                decode_message(body[:cut])

    def test_trailing_bytes_rejected(self):
        body = encode_message(sample_message())
        with pytest.raises(CodecError):
            decode_message(body + b"\x00")

    def test_unknown_kind_code_rejected(self):
        body = bytearray(encode_message(sample_message()))
        body[0] = 0xEE
        with pytest.raises(CodecError):
            decode_message(bytes(body))

    def test_unknown_category_code_rejected(self):
        body = bytearray(encode_message(sample_message()))
        body[1] = 0xEE
        with pytest.raises(CodecError):
            decode_message(bytes(body))

    def test_unknown_flag_bits_rejected(self):
        body = bytearray(encode_message(sample_message()))
        body[2] |= 0x80
        with pytest.raises(CodecError):
            decode_message(bytes(body))

    @pytest.mark.parametrize("signed", [False, True])
    def test_flag_bit_zero_is_unknown(self, signed):
        # Bit 0 is unassigned: no encoder sets it, and no decoder accepts it.
        body = bytearray(encode_message(sample_message(), signed=signed))
        assert body[2] & 0x01 == 0
        body[2] |= 0x01
        with pytest.raises(CodecError, match="unknown flag bits"):
            decode_message(bytes(body), signed=signed)

    def test_invalid_utf8_rejected(self):
        message = sample_message(payload=("abcd",))
        body = bytearray(encode_message(message))
        body[-2] = 0xFF  # corrupt a payload byte into invalid UTF-8
        with pytest.raises(CodecError):
            decode_message(bytes(body))

    def test_garbage_rejected(self):
        with pytest.raises(CodecError):
            decode_message(b"\x99" * 40)


class TestEnvelope:
    def test_frame_round_trips(self):
        body = encode_message(sample_message())
        frame = encode_frame(FRAME_REQUEST, 42, body)
        assert len(frame) == ENVELOPE_BYTES + len(body)
        assert decode_frame(frame) == (FRAME_REQUEST, 42, body)

    def test_ack_frame_has_empty_body(self):
        frame_type, request_id, body = decode_frame(encode_frame(FRAME_ACK, 7))
        assert (frame_type, request_id, body) == (FRAME_ACK, 7, b"")

    def test_error_frame_round_trips(self):
        frame = encode_frame(FRAME_ERROR, 9, encode_error("crashed"))
        frame_type, request_id, body = decode_frame(frame)
        assert frame_type == FRAME_ERROR
        assert decode_error(body) == "crashed"

    def test_bad_magic_rejected(self):
        frame = bytearray(encode_frame(FRAME_ACK, 1))
        frame[0:2] = b"XX"
        with pytest.raises(CodecError, match="magic"):
            decode_frame(bytes(frame))

    def test_wrong_version_rejected(self):
        # Version 2 is the signed envelope (tests/sec); 3 is from the future.
        frame = bytearray(encode_frame(FRAME_ACK, 1))
        frame[2] = WIRE_VERSION + 2
        with pytest.raises(CodecError, match="version"):
            decode_frame(bytes(frame))

    def test_unknown_frame_type_rejected(self):
        frame = bytearray(encode_frame(FRAME_ACK, 1))
        frame[3] = 0x7F
        with pytest.raises(CodecError):
            decode_frame(bytes(frame))

    def test_truncated_envelope_rejected(self):
        with pytest.raises(CodecError):
            decode_frame(MAGIC + bytes([WIRE_VERSION]))

    def test_magic_is_stable(self):
        assert encode_frame(FRAME_RESPONSE, 3)[:2] == MAGIC == b"RP"


class TestStreamFraming:
    def test_single_frame_round_trips(self):
        frame = encode_frame(FRAME_ACK, 5)
        unframer = StreamUnframer()
        assert unframer.feed(encode_stream(frame)) == [frame]
        assert unframer.pending_bytes == 0

    def test_fragmented_delivery_reassembles(self):
        frame = encode_frame(FRAME_REQUEST, 6, encode_message(sample_message()))
        stream = encode_stream(frame)
        unframer = StreamUnframer()
        collected = []
        for offset in range(len(stream)):
            collected += unframer.feed(stream[offset:offset + 1])
        assert collected == [frame]

    def test_coalesced_delivery_splits(self):
        frames = [encode_frame(FRAME_ACK, n) for n in range(3)]
        stream = b"".join(encode_stream(frame) for frame in frames)
        assert StreamUnframer().feed(stream) == frames

    def test_oversized_stream_frame_rejected(self):
        unframer = StreamUnframer(max_frame_bytes=16)
        with pytest.raises(CodecError):
            unframer.feed((1 << 20).to_bytes(4, "big"))
