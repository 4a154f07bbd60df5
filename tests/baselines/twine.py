"""INS/Twine-style strand replication over a DHT (baseline).

INS/Twine extracts *strands* -- subsequences of attribute-value pairs --
from each semi-structured resource description, hashes every strand to a
numeric key, and stores the **complete description** on the resolver
node of every strand.  A query is sent to the resolver of its longest
strand, which filters its local descriptions and returns the matches.

Mapped onto this repository's field model, a strand is a combination of
up to ``max_strand_fields`` queryable field values, serialized in the
same canonical form the index layer hashes.  The contrast with the
paper's approach is then direct and measurable on identical substrates
and workloads:

==============================  ================  ======================
                                 key-to-key index  Twine replication
==============================  ================  ======================
stored under a broad key         target *queries*  full descriptions
copies of a record's data        1 (at the MSD)    one per strand
lookup interactions              2..4 (chain)      2 (resolver + file)
query shapes answerable          indexed classes   every strand shape
==============================  ================  ======================
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.core.fields import Record, Schema
from repro.core.query import FieldQuery
from repro.net.message import Message, MessageKind
from repro.net.transport import SimulatedTransport
from repro.storage.store import DHTStorage


@dataclass
class TwineWorkloadResult:
    """Aggregate measurements of a Twine workload run."""

    searches: int = 0
    found: int = 0
    total_interactions: int = 0
    normal_bytes_total: int = 0
    #: Figure 15: resolver endpoint -> lookups that touched it.
    node_queries: Counter[str] = field(default_factory=Counter)

    @property
    def avg_interactions(self) -> float:
        return self.total_interactions / max(1, self.searches)

    @property
    def normal_bytes_per_query(self) -> float:
        return self.normal_bytes_total / max(1, self.searches)


class TwineResolver:
    """Strand-replicated resource discovery over a DHT substrate."""

    def __init__(
        self,
        schema: Schema,
        description_store: DHTStorage,
        file_store: DHTStorage,
        transport: SimulatedTransport,
        max_strand_fields: int = 2,
    ) -> None:
        if max_strand_fields < 1:
            raise ValueError("strands need at least one field")
        self.schema = schema
        self.description_store = description_store
        self.file_store = file_store
        self.transport = transport
        self.max_strand_fields = max_strand_fields
        self._registered: set[str] = set()
        self.register_nodes()

    # -- resolver endpoints ------------------------------------------------------

    @staticmethod
    def endpoint_name(node: int) -> str:
        """Transport endpoint name of a resolver node."""
        return f"resolver:{node:x}"

    def register_nodes(self) -> None:
        """Create transport endpoints for all substrate nodes."""
        for node in self.description_store.protocol.node_ids:
            name = self.endpoint_name(node)
            if name not in self._registered:
                self.transport.register(name, self._make_handler(node))
                self._registered.add(name)

    def _make_handler(self, node: int):
        def handle(message: Message):
            if message.kind is MessageKind.QUERY_REQUEST:
                (strand_key,) = message.payload
                descriptions = self.description_store.values_at(node, strand_key)
                return message.reply(MessageKind.QUERY_RESPONSE, descriptions)
            if message.kind is MessageKind.FILE_REQUEST:
                (msd_key,) = message.payload
                stored = self.file_store.values_at(node, msd_key)
                return message.reply(
                    MessageKind.FILE_RESPONSE, (msd_key,) if stored else ()
                )
            return None

        return handle

    # -- strand extraction ----------------------------------------------------------

    def strand_keysets(self) -> list[tuple[str, ...]]:
        """Every field combination that forms a strand."""
        fields = self.schema.field_names
        keysets: list[tuple[str, ...]] = []
        for size in range(1, self.max_strand_fields + 1):
            keysets.extend(itertools.combinations(fields, size))
        return keysets

    def strands_for(self, record: Record) -> list[FieldQuery]:
        """The strand queries of one record."""
        return [
            FieldQuery.of_record(record, keyset)
            for keyset in self.strand_keysets()
        ]

    # -- operations --------------------------------------------------------------------

    def insert_record(self, record: Record, file_payload: str = "file") -> None:
        """Replicate the full description on every strand resolver."""
        msd = FieldQuery.msd_of(record)
        description = msd.key()  # carries every field of the record
        self.file_store.put(msd.key(), file_payload)
        for strand in self.strands_for(record):
            self.description_store.put(strand.key(), description)

    def lookup(
        self,
        query: FieldQuery,
        target: Record,
        user: str,
        touched: Optional[set[str]] = None,
    ) -> tuple[bool, int]:
        """Resolve a query and fetch the target's file.

        Returns ``(found, interactions)``.  One resolver round trip
        returns the full matching descriptions; selecting the target's
        and fetching its file costs one more interaction -- Twine
        lookups are flat by construction.  Every node that answered
        joins ``touched``, the lookup's Figure 15 set.
        """
        if touched is None:
            touched = set()
        if not self.transport.is_registered(user):
            self.transport.register(user, lambda message: None)
        strand_key = query.key()
        node = self.description_store.responsible_nodes(strand_key)[0]
        response = self.transport.send(
            Message(
                kind=MessageKind.QUERY_REQUEST,
                source=user,
                destination=self.endpoint_name(node),
                payload=(strand_key,),
            )
        )
        touched.add(self.endpoint_name(node))
        interactions = 1
        assert response is not None
        target_msd = FieldQuery.msd_of(target).key()
        if target_msd not in response.payload:
            return False, interactions
        file_node = self.file_store.responsible_nodes(target_msd)[0]
        file_response = self.transport.send(
            Message(
                kind=MessageKind.FILE_REQUEST,
                source=user,
                destination=self.endpoint_name(file_node),
                payload=(target_msd,),
            )
        )
        touched.add(self.endpoint_name(file_node))
        interactions += 1
        assert file_response is not None
        return bool(file_response.payload), interactions

    def run_workload(self, workload: Iterable, user: str = "user:twine") -> TwineWorkloadResult:
        """Feed generated queries (see :mod:`repro.workload.querygen`)."""
        result = TwineWorkloadResult()
        meter = self.transport.meter
        for item in workload:
            query = item.query
            # Queries broader than the longest strand cannot be resolved
            # directly; Twine sends them to the longest available strand,
            # which for our field queries is the query itself when small
            # enough, else its largest strand-sized restriction.
            if len(query.fields) > self.max_strand_fields:
                fields = sorted(query.fields)[: self.max_strand_fields]
                query = query.restrict(fields)
            touched: set[str] = set()
            found, interactions = self.lookup(query, item.target, user, touched)
            result.node_queries.update(touched)
            result.searches += 1
            result.found += int(found)
            result.total_interactions += interactions
        result.normal_bytes_total = meter.normal_bytes
        return result

    # -- statistics ------------------------------------------------------------------------

    def storage_bytes(self) -> int:
        """Bytes of replicated description data (excludes files)."""
        return self.description_store.storage_bytes()

    def copies_per_record(self) -> int:
        """How many replicas of a record's description exist."""
        return len(self.strand_keysets())
