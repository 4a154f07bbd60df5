"""repro -- Data Indexing in Peer-to-Peer DHT Networks (ICDCS 2004).

A full reproduction of Garcés-Erice, Felber, Biersack, Urvoy-Keller &
Ross: distributed hierarchical indexes that give DHTs broad-query lookup
through query-to-query mappings, with an adaptive distributed cache.

Subpackages, bottom-up:

- :mod:`repro.xmlq` -- the XPath query subset: lexer, parser, AST and
  normal form (the paper's tree-pattern covering is the test tree's
  oracle; the index layer decides covering on field queries);
- :mod:`repro.net` -- simulated transport with traffic accounting;
- :mod:`repro.dht` -- Chord, Kademlia, Pastry, CAN, and an ideal
  consistent-hashing ring behind one protocol interface;
- :mod:`repro.storage` -- multi-entry replicated DHT storage;
- :mod:`repro.core` -- the paper's contribution: indexing schemes, the
  index service, the lookup engine, the adaptive cache;
- :mod:`repro.workload` -- corpus, popularity, and query models;
- :mod:`repro.sim` -- the evaluation harness (Section V);
- :mod:`repro.analysis` -- fitting and reporting helpers;
- :mod:`repro.baselines` -- the INS/Twine replication comparator.

Cross-cutting: :mod:`repro.perf` holds the cheap always-on performance
counters the layers increment (key parses and their cache hit rate,
engine and service traffic, faults, WAL, wire and security events).

The most common entry points are re-exported here.
"""

from repro import perf
from repro.core import (
    ARTICLE_SCHEMA,
    FieldQuery,
    IndexScheme,
    IndexService,
    LookupEngine,
    Record,
    Schema,
    complex_scheme,
    flat_scheme,
    simple_scheme,
)
from repro.dht import (
    CANNetwork,
    ChordNetwork,
    IdealRing,
    KademliaNetwork,
    PastryNetwork,
    hash_key,
)
from repro.net import SimulatedTransport
from repro.sim import Experiment, ExperimentConfig
from repro.storage import DHTStorage
from repro.workload import CorpusConfig, QueryGenerator, SyntheticCorpus

__version__ = "1.0.0"

__all__ = [
    "ARTICLE_SCHEMA",
    "FieldQuery",
    "IndexScheme",
    "IndexService",
    "LookupEngine",
    "Record",
    "Schema",
    "complex_scheme",
    "flat_scheme",
    "simple_scheme",
    "CANNetwork",
    "ChordNetwork",
    "IdealRing",
    "KademliaNetwork",
    "PastryNetwork",
    "hash_key",
    "SimulatedTransport",
    "Experiment",
    "ExperimentConfig",
    "DHTStorage",
    "CorpusConfig",
    "QueryGenerator",
    "SyntheticCorpus",
    "perf",
    "__version__",
]
