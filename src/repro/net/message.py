"""Message model with a deterministic byte-size accounting.

Figure 12 of the paper reports "average network traffic (bytes) generated
per query", with traffic "mainly driven by responses, which usually
outnumber a single query", and separates *cache traffic* (bytes spent
creating shortcut entries after successful lookups) from *normal traffic*.

To reproduce those measurements we need a concrete, stable size model.  A
message's payload is one or more query strings (requests carry one query;
responses carry the result set; cache-insert messages carry the shortcut
mapping).  The size of a message is::

    HEADER_BYTES + sum(len(utf8(query)) + PER_ENTRY_BYTES for each entry)

with a small fixed header and per-entry framing overhead.  The absolute
constants are arbitrary (the paper does not publish its own), but every
scheme/policy is measured under the same model, so the *relative* results
-- which Figure 12 is about -- are preserved.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

#: Fixed per-message overhead (addressing, type, framing).
HEADER_BYTES = 16
#: Per-payload-entry framing overhead (length prefix, separator).
PER_ENTRY_BYTES = 4


class MessageKind(enum.Enum):
    """Application-level message types exchanged with the index service."""

    QUERY_REQUEST = "query_request"
    QUERY_RESPONSE = "query_response"
    INDEX_INSERT = "index_insert"
    INDEX_REMOVE = "index_remove"
    CACHE_INSERT = "cache_insert"
    FILE_REQUEST = "file_request"
    FILE_RESPONSE = "file_response"
    CONTROL = "control"

    __hash__ = object.__hash__  # a singleton: C, not Enum's python hash


class TrafficCategory(enum.Enum):
    """Accounting buckets used by Figure 12."""

    NORMAL = "normal"
    CACHE = "cache"
    MAINTENANCE = "maintenance"

    __hash__ = object.__hash__  # as MessageKind's


#: The Figure 12 bucket of each kind.
_CATEGORY_OF_KIND = dict.fromkeys(MessageKind, TrafficCategory.NORMAL) | {
    MessageKind.CACHE_INSERT: TrafficCategory.CACHE,
    MessageKind.INDEX_INSERT: TrafficCategory.MAINTENANCE,
    MessageKind.INDEX_REMOVE: TrafficCategory.MAINTENANCE,
    MessageKind.CONTROL: TrafficCategory.MAINTENANCE,
}


@dataclass(frozen=True)
class Message:
    """An application message between a user (or node) and a node.

    ``source`` and ``destination`` are opaque endpoint names registered
    with the transport; ``payload`` is a tuple of query strings (or other
    textual entries); ``size_bytes`` is derived from the payload.
    """

    kind: MessageKind
    source: str
    destination: str
    payload: tuple[str, ...] = ()
    #: Overlay legs this message traverses (>= 1).  The synchronous
    #: transport ignores it; the event kernel multiplies the sampled
    #: per-hop latency by it, so a request routed through a Chord/
    #: Kademlia overlay costs its real routing delay while the direct
    #: response costs one leg.  It does not contribute to ``size_bytes``
    #: (the byte model of Figure 12 is per application message).
    route_hops: int = 1
    category: TrafficCategory = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.category is None:
            object.__setattr__(self, "category", _CATEGORY_OF_KIND[self.kind])

    @property
    def size_bytes(self) -> int:
        """Deterministic wire-size *estimate* of this message.

        This is the payload-derived model Figure 12's traffic accounting
        uses.  The real wire codec (:mod:`repro.rpc.codec`) produces a
        *measured* size that exceeds this estimate by exactly the
        endpoint-name bytes plus a fixed framing delta (see
        ``estimate_delta`` in ``tests/rpc/wire_size.py``); a tier-1 test pins the
        relation, so the estimate stays an honest lower bound.
        """
        payload = self.payload
        return (
            HEADER_BYTES
            + len("".join(payload).encode("utf-8"))
            + PER_ENTRY_BYTES * len(payload)
        )

    def reply(
        self, kind: MessageKind, payload: tuple[str, ...] = ()
    ) -> "Message":
        """Build a response message back to this message's source."""
        return Message(
            kind=kind,
            source=self.destination,
            destination=self.source,
            payload=payload,
        )
