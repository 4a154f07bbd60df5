"""Estimated vs measured message sizes (Figure 12 cross-check).

``Message.size_bytes`` is the payload-derived *estimate* the traffic
accounting uses; ``measured_size_bytes`` (``tests/rpc/wire_size.py``) is what the
wire actually carries.  These tests pin the exact documented relation
between the two, so the estimate stays an honest lower bound and any
codec change that silently grows the frame breaks loudly.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.message import (
    HEADER_BYTES,
    PER_ENTRY_BYTES,
    Message,
    MessageKind,
)
from repro.rpc.codec import (
    ENVELOPE_BYTES,
    MESSAGE_FIXED_BYTES,
    WIRE_PER_ENTRY_BYTES,
)
from tests.rpc.wire_size import estimate_delta, measured_size_bytes


def payload_message(kind, source="user:0", destination="node:2a"):
    return Message(
        kind=kind,
        source=source,
        destination=destination,
        payload=("author=knuth", "title=taocp"),
    )


class TestDocumentedRelation:
    @pytest.mark.parametrize("kind", list(MessageKind))
    def test_measured_equals_estimate_plus_delta(self, kind):
        message = payload_message(kind)
        assert measured_size_bytes(message) == message.size_bytes + (
            estimate_delta(message)
        )

    def test_delta_is_framing_plus_names(self):
        message = payload_message(MessageKind.QUERY_REQUEST)
        names = len(message.source.encode()) + len(
            message.destination.encode()
        )
        fixed = ENVELOPE_BYTES + MESSAGE_FIXED_BYTES - HEADER_BYTES
        assert estimate_delta(message) == fixed + names

    def test_estimate_is_a_lower_bound(self):
        message = payload_message(MessageKind.QUERY_RESPONSE)
        assert measured_size_bytes(message) > message.size_bytes

    def test_per_entry_overheads_agree(self):
        # The wire's u32 length prefix costs exactly what the estimate
        # charges per entry, so payload growth cancels in the delta.
        assert WIRE_PER_ENTRY_BYTES == PER_ENTRY_BYTES

    def test_delta_is_payload_independent(self):
        small = payload_message(MessageKind.QUERY_REQUEST)
        big = Message(
            kind=MessageKind.QUERY_REQUEST,
            source=small.source,
            destination=small.destination,
            payload=tuple(f"entry-{i}" * 50 for i in range(30)),
        )
        assert estimate_delta(small) == estimate_delta(big)
        assert measured_size_bytes(big) == big.size_bytes + estimate_delta(big)


names = st.text(min_size=1, max_size=40)


@given(
    kind=st.sampled_from(list(MessageKind)),
    source=names,
    destination=names,
    payload=st.lists(st.text(max_size=50), max_size=6).map(tuple),
)
def test_relation_holds_across_the_message_space(
    kind, source, destination, payload
):
    message = Message(
        kind=kind, source=source, destination=destination, payload=payload
    )
    assert measured_size_bytes(message) == message.size_bytes + (
        estimate_delta(message)
    )


def test_explicit_size_is_not_bound_by_the_relation():
    """A file transfer's size_bytes is the article size, not the frame's.

    The wire still moves only the descriptor, so the measured size is
    unrelated to (and typically far below) the explicit figure; the
    cross-check deliberately binds the payload-derived case only.
    """
    message = Message(
        kind=MessageKind.FILE_RESPONSE,
        source="node:1",
        destination="user:0",
        payload=("author=x/title=y",),
        explicit_size=10_000_000,
    )
    assert message.size_bytes == 10_000_000
    assert measured_size_bytes(message) < message.size_bytes
