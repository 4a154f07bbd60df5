"""DHT storage layer: key-to-values storage over any DHT substrate.

Models the Chord/DHash/CFS and Pastry/PAST class of systems the paper
assumes underneath its indexes (Section III-A), with the one extension the
indexing technique requires (Section IV): *the registration of multiple
entries under the same key*.  Index nodes store many query-to-query
mappings under one index key, and the storage layer must return all of
them on a lookup.
"""

from repro.storage.durable import (
    DurableNodeState,
    FsyncPolicy,
    NodeWalSet,
    RecoveryReport,
    WalError,
    WriteAheadLog,
    replay_wal,
)
from repro.storage.store import (
    DHTStorage,
    GetResult,
    PutResult,
    StorageError,
)

__all__ = [
    "DHTStorage",
    "DurableNodeState",
    "FsyncPolicy",
    "GetResult",
    "NodeWalSet",
    "PutResult",
    "RecoveryReport",
    "StorageError",
    "WalError",
    "WriteAheadLog",
    "replay_wal",
]
