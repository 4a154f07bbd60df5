"""Core contribution: hierarchical query-to-query indexing over a DHT.

This package implements Section IV of the paper:

- :mod:`repro.core.fields` -- descriptor schemas: the bridge between
  structured records (author/title/conference/year fields), XML
  descriptors, and canonical XPath queries;
- :mod:`repro.core.query` -- :class:`FieldQuery`, the working
  representation of a query as a set of field constraints, with covering,
  restriction, and canonical serialization (the key fed to ``h``);
- :mod:`repro.core.scheme` -- indexing schemes: DAGs of index classes
  (the *simple*, *flat*, and *complex* schemes of Figure 8, plus a
  builder for custom hierarchies and popular-content shortcuts);
- :mod:`repro.core.cache` -- per-node adaptive caches with the paper's
  three policies (multi-cache, single-cache, LRU-k);
- :mod:`repro.core.service` -- the distributed index service: insertion
  and deletion of records, node-side query resolution over the DHT
  storage layer, cache maintenance, traffic metering;
- :mod:`repro.core.engine` -- the user-side lookup engine: iterative
  search down the query partial order, target selection, cache shortcut
  jumps, and generalization/specialization for non-indexed queries;
- :mod:`repro.core.predicates` -- the typed predicate algebra over field
  constraints (:class:`Exact`, :class:`Prefix`, :class:`Wildcard`,
  :class:`Range`) with per-predicate covering;
- :mod:`repro.core.trie` -- the trie-over-DHT index: trie nodes as DHT
  keys, child expansion as lookups, range queries as bounded walks.
"""

from repro.core.cache import CacheEntry, CachePolicy, NodeCache
from repro.core.engine import LookupEngine, LookupError_, SearchTrace
from repro.core.fields import ARTICLE_SCHEMA, Record, Schema, SchemaError
from repro.core.predicates import (
    Exact,
    Prefix,
    PredicateError,
    Range,
    Wildcard,
)
from repro.core.query import FieldQuery, QueryParseError
from repro.core.scheme import (
    MSD_TARGET,
    FieldPredicates,
    IndexScheme,
    SchemeValidationError,
    article_predicates,
    complex_scheme,
    flat_scheme,
    simple_scheme,
)
from repro.core.service import IndexService, IndexServiceError
from repro.core.session import InteractiveSession, SessionError, SessionStep
from repro.core.trie import TrieIndex

__all__ = [
    "ARTICLE_SCHEMA",
    "Record",
    "Schema",
    "SchemaError",
    "FieldQuery",
    "QueryParseError",
    "MSD_TARGET",
    "IndexScheme",
    "SchemeValidationError",
    "simple_scheme",
    "flat_scheme",
    "complex_scheme",
    "CacheEntry",
    "CachePolicy",
    "NodeCache",
    "IndexService",
    "IndexServiceError",
    "LookupEngine",
    "LookupError_",
    "SearchTrace",
    "InteractiveSession",
    "SessionError",
    "SessionStep",
    "Exact",
    "Prefix",
    "Wildcard",
    "Range",
    "PredicateError",
    "FieldPredicates",
    "article_predicates",
    "TrieIndex",
]
