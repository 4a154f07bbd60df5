"""Unit tests for the message model and size accounting."""

from repro.net.message import (
    HEADER_BYTES,
    PER_ENTRY_BYTES,
    Message,
    MessageKind,
    TrafficCategory,
)


class TestSizes:
    def test_empty_payload_is_header_only(self):
        message = Message(MessageKind.QUERY_REQUEST, "a", "b")
        assert message.size_bytes == HEADER_BYTES

    def test_payload_bytes_counted(self):
        message = Message(
            MessageKind.QUERY_RESPONSE, "a", "b", payload=("abc", "de")
        )
        assert message.size_bytes == HEADER_BYTES + 3 + 2 + 2 * PER_ENTRY_BYTES

    def test_utf8_length_used(self):
        message = Message(MessageKind.QUERY_REQUEST, "a", "b", payload=("é",))
        assert message.size_bytes == HEADER_BYTES + 2 + PER_ENTRY_BYTES

    def test_size_grows_with_result_set(self):
        small = Message(MessageKind.QUERY_RESPONSE, "a", "b", payload=("x",))
        large = Message(
            MessageKind.QUERY_RESPONSE, "a", "b", payload=tuple("x" * 5 for _ in range(9))
        )
        assert large.size_bytes > small.size_bytes


class TestCategories:
    def test_cache_insert_is_cache_traffic(self):
        message = Message(MessageKind.CACHE_INSERT, "a", "b")
        assert message.category is TrafficCategory.CACHE

    def test_query_is_normal_traffic(self):
        for kind in (
            MessageKind.QUERY_REQUEST,
            MessageKind.QUERY_RESPONSE,
            MessageKind.FILE_REQUEST,
            MessageKind.FILE_RESPONSE,
        ):
            assert Message(kind, "a", "b").category is TrafficCategory.NORMAL

    def test_inserts_are_maintenance(self):
        for kind in (MessageKind.INDEX_INSERT, MessageKind.INDEX_REMOVE,
                     MessageKind.CONTROL):
            assert Message(kind, "a", "b").category is TrafficCategory.MAINTENANCE

    def test_explicit_category_kept(self):
        message = Message(
            MessageKind.QUERY_REQUEST, "a", "b", category=TrafficCategory.CACHE
        )
        assert message.category is TrafficCategory.CACHE


class TestReply:
    def test_reply_reverses_direction(self):
        request = Message(MessageKind.QUERY_REQUEST, "user:1", "node:9")
        response = request.reply(MessageKind.QUERY_RESPONSE, ("entry",))
        assert response.source == "node:9"
        assert response.destination == "user:1"
        assert response.payload == ("entry",)
