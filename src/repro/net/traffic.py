"""Traffic accounting: message bytes and counts per traffic category.

Figure 12 sums the bytes of all messages a query generates, split into
*normal* and *cache* traffic.  The simulation calls
:meth:`TrafficMeter.record` for every message the indexing layer sends or
receives.  Figure 15 (the share of queries that touched each node) is
not traffic: each lookup carries its own touched set
(``SearchTrace.touched``), and the experiment counts those.
"""

from __future__ import annotations

from collections import Counter

from repro.net.message import Message, TrafficCategory


class TrafficMeter:
    """Accumulates byte and message counts by traffic category."""

    def __init__(self) -> None:
        self._bytes: Counter[TrafficCategory] = Counter()
        self._messages: Counter[TrafficCategory] = Counter()

    def record(self, message: Message) -> None:
        """Account one message's bytes to its traffic category."""
        category = message.category
        self._bytes[category] += message.size_bytes
        self._messages[category] += 1

    def bytes_for(self, category: TrafficCategory) -> int:
        """Total bytes recorded in one category."""
        return self._bytes[category]

    def messages_for(self, category: TrafficCategory) -> int:
        """Number of messages recorded in one category."""
        return self._messages[category]

    @property
    def normal_bytes(self) -> int:
        return self._bytes[TrafficCategory.NORMAL]

    @property
    def cache_bytes(self) -> int:
        return self._bytes[TrafficCategory.CACHE]

    @property
    def total_bytes(self) -> int:
        return sum(self._bytes.values())
