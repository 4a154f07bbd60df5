"""Property tests: the wire codec round-trips arbitrary messages.

Hypothesis drives the codec across the full message space -- every
kind, every category, unicode payloads and endpoint names, the
route_hops wire range, optional explicit sizes, and large frames -- and
asserts the round trip is the identity and the measured size matches
the frame actually produced.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.message import Message, MessageKind, TrafficCategory
from repro.rpc.codec import (
    ENVELOPE_BYTES,
    FRAME_REQUEST,
    CodecError,
    decode_frame,
    decode_message,
    encode_frame,
    encode_message,
)
from tests.rpc.wire_size import measured_size_bytes

text = st.text(max_size=64)
names = st.text(min_size=1, max_size=48)

messages = st.builds(
    Message,
    kind=st.sampled_from(list(MessageKind)),
    source=names,
    destination=names,
    payload=st.tuples() | st.lists(text, max_size=8).map(tuple),
    explicit_size=st.none() | st.integers(min_value=0, max_value=2**64 - 1),
    route_hops=st.integers(min_value=1, max_value=0xFFFF),
    category=st.sampled_from(list(TrafficCategory)),
)


@given(messages)
def test_round_trip_is_identity(message):
    assert decode_message(encode_message(message)) == message


@given(messages)
def test_encoding_is_deterministic(message):
    assert encode_message(message) == encode_message(message)


@given(messages)
def test_measured_size_matches_frame(message):
    body = encode_message(message)
    assert measured_size_bytes(message) == ENVELOPE_BYTES + len(body)
    frame = encode_frame(FRAME_REQUEST, 1, body)
    assert len(frame) == measured_size_bytes(message)


@given(messages, st.integers(min_value=0, max_value=2**64 - 1))
def test_frame_envelope_round_trips(message, request_id):
    body = encode_message(message)
    frame = encode_frame(FRAME_REQUEST, request_id, body)
    assert decode_frame(frame) == (FRAME_REQUEST, request_id, body)


@settings(max_examples=20)
@given(
    st.lists(
        st.text(min_size=5, max_size=20), min_size=4, max_size=8
    ),
    st.integers(min_value=200, max_value=500),
)
def test_large_frames_round_trip(entries, repeat):
    """Frames far beyond the UDP cutoff still encode and decode exactly."""
    message = Message(
        kind=MessageKind.QUERY_RESPONSE,
        source="node:1",
        destination="user:0",
        payload=tuple(entry * repeat for entry in entries),
    )
    body = encode_message(message)
    assert len(body) > 4000
    assert decode_message(body) == message


@given(messages, st.integers(min_value=1))
def test_truncation_never_passes(message, cut):
    """No strict prefix of a valid body decodes cleanly."""
    body = encode_message(message)
    if cut > len(body):
        return
    truncated = body[:-cut]
    try:
        decoded = decode_message(truncated)
    except CodecError:
        return
    # Extremely unlikely, but if a prefix parses it must not silently
    # impersonate the original message.
    assert decoded != message
