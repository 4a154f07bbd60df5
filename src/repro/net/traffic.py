"""Traffic and per-node load accounting.

Two of the paper's figures are pure accounting:

- Figure 12 sums the bytes of all messages a query generates, split into
  *normal* and *cache* traffic; and
- Figure 15 counts, for each node, the percentage of the 50,000 issued
  queries that touched it (summing to more than 100% because one user
  query fans out into several index interactions).

:class:`TrafficMeter` accumulates both views.  The simulation calls
:meth:`TrafficMeter.record` for every message the indexing layer sends or
receives, and :meth:`TrafficMeter.touch_node` whenever a query is processed
by a node.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.net.message import Message, TrafficCategory


@dataclass
class NodeLoad:
    """Per-node processing counters (Figure 15 / hot-spot analysis)."""

    messages: int = 0
    queries_touched: int = 0
    bytes_in: int = 0
    bytes_out: int = 0


class TrafficMeter:
    """Accumulates byte counts by category and load by node."""

    def __init__(self) -> None:
        self._bytes: Counter[TrafficCategory] = Counter()
        self._messages: Counter[TrafficCategory] = Counter()
        self._node_loads: dict[str, NodeLoad] = {}
        #: Nodes touched by the query currently being processed; flushed
        #: into queries_touched by end_query().  A driver running
        #: overlapping lookups points this at each lookup's own set
        #: before resuming it; an operation that outlives one resume
        #: keeps the set it started under.
        self.current_query_nodes: set[str] = set()

    # -- byte accounting ---------------------------------------------------

    def record(self, message: Message) -> None:
        """Account one message's bytes to its traffic category.

        Called once per message -- millions of times in a large run --
        so it avoids the throwaway ``NodeLoad()`` that ``setdefault``
        would construct on every call for already-known endpoints.
        """
        size = message.size_bytes
        category = message.category
        self._bytes[category] += size
        self._messages[category] += 1
        loads = self._node_loads
        destination = loads.get(message.destination)
        if destination is None:
            destination = loads[message.destination] = NodeLoad()
        destination.messages += 1
        destination.bytes_in += size
        source = loads.get(message.source)
        if source is None:
            source = loads[message.source] = NodeLoad()
        source.bytes_out += size

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

    # -- per-node / per-query load -----------------------------------------

    def touch_node(self, node: str) -> None:
        """Mark that the current query was processed by ``node``."""
        self.current_query_nodes.add(node)

    def end_query(self) -> None:
        """Flush the set of nodes touched by the query just completed."""
        self.count_query(self.current_query_nodes)
        self.current_query_nodes.clear()

    def count_query(self, nodes: set[str]) -> None:
        """Credit one completed query to every node in ``nodes``."""
        loads = self._node_loads
        for node in nodes:
            load = loads.get(node)
            if load is None:
                load = loads[node] = NodeLoad()
            load.queries_touched += 1

    def node_load(self, node: str) -> NodeLoad:
        """The per-node counters for one endpoint."""
        return self._node_loads.setdefault(node, NodeLoad())

    def query_counts_by_node(self) -> dict[str, int]:
        """Map node -> number of distinct queries that touched it."""
        return {
            node: load.queries_touched
            for node, load in self._node_loads.items()
            if load.queries_touched
        }

    def reset(self) -> None:
        """Clear every counter."""
        self._bytes.clear()
        self._messages.clear()
        self._node_loads.clear()
        self.current_query_nodes.clear()
