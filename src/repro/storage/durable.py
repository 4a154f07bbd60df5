"""Durable node state: one write-ahead log per node.

Every daemon from :mod:`repro.rpc` was fully in-memory: a restart lost
its index entries, replicas, shortcut cache, and membership view.  This
module supplies the missing persistence layer as a *pluggable journal*
behind :class:`repro.storage.store.DHTStorage` (and the index service's
shortcut caches), with crash-recovery semantics a production storage
node needs:

- an **append-only write-ahead log** (``wal.log``) of every
  state-changing operation -- index/file inserts, deletes, shortcut
  cache inserts, and membership-relevant local state -- using the same
  framing discipline as the :mod:`repro.rpc.codec` wire protocol:
  length-prefixed, CRC32-checksummed, versioned records that a decoder
  can reject without crashing;
- **fsync policies** (``always`` / ``interval[:N]`` / ``never``)
  trading write latency against the power-loss window.  The log file is
  unbuffered, so a SIGKILL of the process loses *nothing* under any
  policy -- only losing the machine (power loss) can cost the records
  appended since the last fsync;
- **compaction**: the materialized node state is written as ordinary
  records to ``wal.log.tmp``, fsynced, and atomically renamed over the
  log.  A compacted log is just a log, so a crash at any instant leaves
  either the old log or the new one under the real name, and recovery
  reads one file with one reader;
- a **recovery path** that replays the log, truncates torn tails (a
  record half-written when the power died) instead of crashing, skips a
  corrupt-CRC record with a warning while keeping the valid prefix, and
  sets a log of another format version aside (``wal.log.v<N>``) instead
  of appending to it.

Layering: :class:`DurableNodeState` is one node's journal (what a
:class:`repro.rpc.daemon.NodeDaemon` owns); :class:`NodeWalSet` fans the
same journal protocol out to one log per node for the simulator's
restart/power-loss chaos, where hundreds of nodes journal concurrently
and any of them may be power-cycled mid-run.
"""

from __future__ import annotations

import os
import struct
import time
import warnings
import zlib
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from repro.perf import counters

#: First bytes of a write-ahead log file.
WAL_MAGIC = b"RPWL"
#: On-disk format version stamped into (and required of) the log.
DURABLE_VERSION = 2
#: Fixed WAL file header: magic + version byte.
WAL_HEADER = WAL_MAGIC + bytes((DURABLE_VERSION,))
WAL_HEADER_BYTES = len(WAL_HEADER)
#: Per-record framing: u32 body length + u32 CRC32 of the body.
RECORD_PREFIX_BYTES = 8
#: Upper bound on one record body; a length prefix beyond this is
#: treated as corruption, not as an allocation request.
MAX_RECORD_BYTES = 16 * 1024 * 1024

#: WAL operation codes (the versioned part of the format: existing codes
#: never change, new operations append).
OP_PUT = 1
OP_REMOVE_VALUE = 2
OP_REMOVE_KEY = 3
OP_CACHE_INSERT = 4
OP_MEMBER = 5
OP_IDENTITY = 6

#: Store labels used by the journal protocol, mapped to wire codes.
STORE_CODES = {"index": 0, "file": 1}
_STORES_BY_CODE = {code: label for label, code in STORE_CODES.items()}

_U32_MAX = 0xFFFFFFFF


class WalError(ValueError):
    """Raised for unrecoverable misuse of the durable layer (bad fsync
    spec, unencodable record).  Disk-level damage never raises this --
    recovery degrades (truncate, skip, warn) instead of crashing."""


@dataclass(frozen=True)
class FsyncPolicy:
    """When the log forces its bytes to the platter.

    ``always`` fsyncs after every append (no power-loss window, slowest);
    ``interval`` fsyncs every ``every`` appends (bounded window);
    ``never`` leaves it to the OS (fastest; a power loss can take the
    whole OS write-back window).  Process death alone -- SIGKILL -- loses
    nothing under any policy, because appends are unbuffered writes.
    """

    mode: str = "interval"
    every: int = 64

    def __post_init__(self) -> None:
        if self.mode not in ("always", "interval", "never"):
            raise WalError(f"unknown fsync mode: {self.mode!r}")
        if self.every < 1:
            raise WalError("fsync interval must be >= 1")

    @classmethod
    def parse(cls, spec: str) -> "FsyncPolicy":
        """``always`` | ``never`` | ``interval[:N]`` -> policy."""
        mode, _, arg = spec.partition(":")
        if mode == "interval" and arg:
            if not arg.isdigit() or int(arg) < 1:
                raise WalError(f"bad fsync interval: {spec!r}")
            return cls(mode, int(arg))
        if arg:
            raise WalError(f"fsync policy takes no argument: {spec!r}")
        return cls(mode)


@dataclass(frozen=True)
class WalOp:
    """One decoded log record: a typed operation.

    ``fields`` is the op-specific tuple:

    ============== =================================================
    op              fields
    ============== =================================================
    OP_PUT          (store_label, key, value)
    OP_REMOVE_VALUE (store_label, key, value)
    OP_REMOVE_KEY   (store_label, key)
    OP_CACHE_INSERT (query_key, msd_key)
    OP_MEMBER       (node_id, host, port)
    OP_IDENTITY     (node_id,)
    ============== =================================================
    """

    op: int
    fields: tuple


# -- record encoding --------------------------------------------------------


def _pack_id(node_id: int) -> bytes:
    """Length-prefixed big-endian node id (ids are ``bits``-wide -- 160
    by default -- so no fixed-width integer field fits them)."""
    if node_id < 0:
        raise WalError("node ids are unsigned")
    data = node_id.to_bytes((node_id.bit_length() + 7) // 8 or 1, "big")
    if len(data) > 0xFFFF:
        raise WalError("node id exceeds u16 byte length")
    return struct.pack(">H", len(data)) + data


def _pack_text(text: str) -> bytes:
    data = text.encode("utf-8")
    if len(data) > _U32_MAX:
        raise WalError("text field exceeds u32 byte length")
    return struct.pack(">I", len(data)) + data


class _Reader:
    """Bounds-checked cursor over one record body (codec discipline)."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        end = self.pos + count
        if end > len(self.data):
            raise WalError("truncated record body")
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def node_id(self) -> int:
        length = int.from_bytes(self.take(2), "big")
        return int.from_bytes(self.take(length), "big")

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def store(self) -> str:
        label = _STORES_BY_CODE.get(self.u8())
        if label is None:
            raise WalError("unknown store code")
        return label

    def text(self) -> str:
        try:
            return self.take(self.u32()).decode("utf-8")
        except UnicodeDecodeError as error:
            raise WalError(f"invalid UTF-8 in record: {error}") from None

    def done(self) -> None:
        if self.pos != len(self.data):
            raise WalError("trailing bytes after record body")


def encode_record_body(op: int, fields: tuple) -> bytes:
    """Serialize one operation into a record body (no framing)."""
    parts = [struct.pack(">B", op)]
    if op in (OP_PUT, OP_REMOVE_VALUE):
        store, key, value = fields
        parts.append(struct.pack(">B", STORE_CODES[store]))
        parts.append(_pack_text(key))
        parts.append(_pack_text(value))
    elif op == OP_REMOVE_KEY:
        store, key = fields
        parts.append(struct.pack(">B", STORE_CODES[store]))
        parts.append(_pack_text(key))
    elif op == OP_CACHE_INSERT:
        query_key, msd_key = fields
        parts.append(_pack_text(query_key))
        parts.append(_pack_text(msd_key))
    elif op == OP_MEMBER:
        node_id, host, port = fields
        parts.append(_pack_id(node_id))
        parts.append(_pack_text(host))
        parts.append(struct.pack(">I", port))
    elif op == OP_IDENTITY:
        (node_id,) = fields
        parts.append(_pack_id(node_id))
    else:
        raise WalError(f"unknown WAL op: {op}")
    return b"".join(parts)


def decode_record_body(body: bytes) -> WalOp:
    """Parse one record body back into a :class:`WalOp`."""
    reader = _Reader(body)
    op = reader.u8()
    if op in (OP_PUT, OP_REMOVE_VALUE):
        fields: tuple = (reader.store(), reader.text(), reader.text())
    elif op == OP_REMOVE_KEY:
        fields = (reader.store(), reader.text())
    elif op == OP_CACHE_INSERT:
        fields = (reader.text(), reader.text())
    elif op == OP_MEMBER:
        fields = (reader.node_id(), reader.text(), reader.u32())
    elif op == OP_IDENTITY:
        fields = (reader.node_id(),)
    else:
        raise WalError(f"unknown WAL op: {op}")
    reader.done()
    return WalOp(op=op, fields=fields)


def frame_record(body: bytes) -> bytes:
    """Wrap a record body in the length + CRC32 framing."""
    if len(body) > MAX_RECORD_BYTES:
        raise WalError("record body exceeds the size limit")
    return struct.pack(">II", len(body), zlib.crc32(body)) + body


# -- write-ahead log --------------------------------------------------------


@dataclass
class ReplayReport:
    """What one log replay saw (and fixed)."""

    records: int = 0
    #: Records dropped for a CRC mismatch (the valid prefix is kept).
    corrupt_records: int = 0
    #: Bytes cut off the end of the file (torn tail / post-corruption).
    truncated_bytes: int = 0
    #: True when the file had to be repaired (torn or corrupt).
    repaired: bool = False


class WriteAheadLog:
    """One append-only, CRC-checksummed, length-prefixed log file.

    The file handle is unbuffered: every :meth:`append` issues the write
    syscall before returning, so an acknowledged append survives process
    death (SIGKILL) under every fsync policy.  ``fsync`` then bounds what
    a *power loss* can take.

    Opening never appends behind a header it does not own: a torn or
    foreign header is cut and the log starts clean, and a log of another
    :data:`DURABLE_VERSION` is first moved aside to ``<path>.v<N>`` --
    records this reader cannot decode stay on disk, untouched.
    """

    def __init__(self, path: str, fsync: FsyncPolicy = FsyncPolicy()) -> None:
        self.path = path
        self.fsync_policy = fsync
        self._appends_since_sync = 0
        head = b""
        if os.path.exists(path):
            with open(path, "rb") as handle:
                head = handle.read(WAL_HEADER_BYTES)
        if head[:-1] == WAL_MAGIC and head != WAL_HEADER:
            os.replace(path, f"{path}.v{head[-1]}")  # another version
            head = b""
        self._file = open(path, "ab", buffering=0)
        if head != WAL_HEADER:
            self._file.truncate(0)  # torn or foreign header
            self._file.write(WAL_HEADER)
            self._sync()
        #: File size at the last fsync: the byte count a power loss is
        #: guaranteed not to touch (used by the power-loss chaos to
        #: decide where a simulated outage may tear the file).
        self.synced_size = self.size

    @property
    def size(self) -> int:
        return self._file.tell() if not self._file.closed else 0

    def append(self, op: int, fields: tuple) -> None:
        """Write one record.

        When this returns, the record is in the OS (SIGKILL-safe); it is
        on the platter according to the fsync policy.
        """
        frame = frame_record(encode_record_body(op, fields))
        self._file.write(frame)
        counters.wal_appends += 1
        counters.wal_bytes += len(frame)
        self._appends_since_sync += 1
        policy = self.fsync_policy
        if policy.mode == "always" or (
            policy.mode == "interval"
            and self._appends_since_sync >= policy.every
        ):
            self._sync()

    def flush(self) -> None:
        """Force everything appended so far to stable storage."""
        if not self._file.closed:
            self._sync()

    def _sync(self) -> None:
        os.fsync(self._file.fileno())
        counters.wal_fsyncs += 1
        self._appends_since_sync = 0
        self.synced_size = self._file.tell()

    def rewrite(self, records: Iterable[WalOp]) -> int:
        """Atomically replace the log with ``records``; returns its size.

        The records go to ``<path>.tmp`` behind a fresh header, are
        fsynced, and only then renamed over the log (and the directory
        fsynced) -- a crash at any instant leaves either the old log or
        the new one under the real name, never a half-written file.  A
        stray ``.tmp`` from an earlier crash is simply overwritten.
        """
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(WAL_HEADER)
            for record in records:
                handle.write(
                    frame_record(encode_record_body(record.op, record.fields))
                )
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        directory = os.path.dirname(os.path.abspath(self.path))
        try:
            dir_fd = os.open(directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without dir fds
            dir_fd = -1
        if dir_fd >= 0:
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        self._file.close()
        self._file = open(self.path, "ab", buffering=0)
        self._appends_since_sync = 0
        self.synced_size = self.size
        counters.wal_compactions += 1
        return self.size

    def close(self) -> None:
        """Flush and release the file (graceful shutdown)."""
        if not self._file.closed:
            self._sync()
            self._file.close()

    def abandon(self) -> None:
        """Release the file WITHOUT flushing -- the SIGKILL path.

        Used by the cluster harness's ``kill_node`` to model a process
        that never got to say goodbye.  Appended bytes are already in
        the OS (unbuffered writes), so only a simulated *power loss* --
        :func:`tear_wal` -- additionally rolls back to the fsync line,
        which :attr:`synced_size` keeps after the file is released.
        """
        if not self._file.closed:
            self._file.close()


def replay_wal(path: str, repair: bool = True) -> tuple[list[WalOp], ReplayReport]:
    """Read a log back, tolerating every form of tail damage.

    Returns the decoded operations plus a report.  A torn tail -- fewer
    bytes than the framing promises -- is truncated; a record whose CRC
    does not match is dropped with a warning and everything *after* it
    is discarded too (framing downstream of a corrupt length cannot be
    trusted), keeping the valid prefix.  A log of another format version
    is ignored (:class:`WriteAheadLog` sets it aside before starting a
    new one).  With ``repair=False`` the file is left untouched
    (diagnostics).
    """
    ops: list[WalOp] = []
    report = ReplayReport()
    if not os.path.exists(path):
        return ops, report
    with open(path, "rb") as handle:
        data = handle.read()
    if len(data) < WAL_HEADER_BYTES or data[: len(WAL_MAGIC)] != WAL_MAGIC:
        warnings.warn(
            f"WAL {path!r} has a bad or torn header; starting empty",
            RuntimeWarning,
            stacklevel=2,
        )
        if repair and data:
            with open(path, "r+b") as handle:
                handle.truncate(0)
        report.truncated_bytes = len(data)
        report.repaired = bool(data)
        counters.wal_torn_tails += bool(data)
        return ops, report
    version = data[len(WAL_MAGIC)]
    if version != DURABLE_VERSION:
        warnings.warn(
            f"WAL {path!r} speaks version {version}, not {DURABLE_VERSION}; "
            "ignoring its records",
            RuntimeWarning,
            stacklevel=2,
        )
        return ops, report
    offset = WAL_HEADER_BYTES
    while True:
        if offset + RECORD_PREFIX_BYTES > len(data):
            break  # torn or clean EOF; handled below
        length, crc = struct.unpack_from(">II", data, offset)
        if length > MAX_RECORD_BYTES:
            warnings.warn(
                f"WAL {path!r}: absurd record length {length} at offset "
                f"{offset}; keeping the prefix",
                RuntimeWarning,
                stacklevel=2,
            )
            report.corrupt_records += 1
            counters.wal_corrupt_records += 1
            break
        body_end = offset + RECORD_PREFIX_BYTES + length
        if body_end > len(data):
            break  # torn tail: the record never finished hitting disk
        body = data[offset + RECORD_PREFIX_BYTES:body_end]
        if zlib.crc32(body) != crc:
            warnings.warn(
                f"WAL {path!r}: CRC mismatch at offset {offset}; dropping "
                "the record and everything after it",
                RuntimeWarning,
                stacklevel=2,
            )
            report.corrupt_records += 1
            counters.wal_corrupt_records += 1
            break
        try:
            ops.append(decode_record_body(body))
        except WalError as error:
            warnings.warn(
                f"WAL {path!r}: undecodable record at offset {offset} "
                f"({error}); keeping the prefix",
                RuntimeWarning,
                stacklevel=2,
            )
            report.corrupt_records += 1
            counters.wal_corrupt_records += 1
            break
        offset = body_end
    report.records = len(ops)
    if offset < len(data):
        report.truncated_bytes = len(data) - offset
        report.repaired = True
        counters.wal_torn_tails += 1
        if repair:
            with open(path, "r+b") as handle:
                handle.truncate(offset)
    counters.wal_records_replayed += report.records
    return ops, report


def tear_wal(path: str, synced_size: int) -> int:
    """Simulate a power loss: tear the log mid-write.

    Everything up to ``synced_size`` (the last fsync line) survives; of
    the unsynced tail, roughly half is kept -- usually cutting the final
    record in two, which is exactly the torn tail recovery must handle.
    Returns the number of bytes torn off.
    """
    size = os.path.getsize(path) if os.path.exists(path) else 0
    if size <= synced_size:
        return 0
    keep = synced_size + (size - synced_size) // 2
    with open(path, "r+b") as handle:
        handle.truncate(keep)
    return size - keep


# -- materialized state -----------------------------------------------------


@dataclass
class NodeState:
    """The materialized node state: what replaying a log yields."""

    node_id: Optional[int] = None
    #: Membership view: node id -> (host, port).
    peers: dict[int, tuple[str, int]] = field(default_factory=dict)
    #: Physical store contents: label -> key -> values (insertion order).
    stores: dict[str, dict[str, list[str]]] = field(
        default_factory=lambda: {"index": {}, "file": {}}
    )
    #: Shortcut cache contents: query key -> msd keys (insertion order).
    cache: dict[str, list[str]] = field(default_factory=dict)

    def apply(self, record: WalOp) -> None:
        """Fold one log record into the state (replay semantics).

        Idempotent by construction: re-applying an already-applied
        record changes nothing, which is what makes double replay after
        repeated restarts safe.
        """
        if record.op == OP_PUT:
            store, key, value = record.fields
            bucket = self.stores[store].setdefault(key, [])
            if value not in bucket:
                bucket.append(value)
        elif record.op == OP_REMOVE_VALUE:
            store, key, value = record.fields
            bucket = self.stores[store].get(key)
            if bucket and value in bucket:
                bucket.remove(value)
                if not bucket:
                    del self.stores[store][key]
        elif record.op == OP_REMOVE_KEY:
            store, key = record.fields
            self.stores[store].pop(key, None)
        elif record.op == OP_CACHE_INSERT:
            query_key, msd_key = record.fields
            targets = self.cache.setdefault(query_key, [])
            if msd_key not in targets:
                targets.append(msd_key)
        elif record.op == OP_MEMBER:
            node_id, host, port = record.fields
            self.peers[node_id] = (host, port)
        elif record.op == OP_IDENTITY:
            (self.node_id,) = record.fields

    def records(self) -> Iterator[WalOp]:
        """The state as log records -- the inverse of :meth:`apply`.

        Identity, members, index puts, file puts, then cache inserts in
        :attr:`cache` order: applied to an empty state they rebuild this
        one, every insertion order included.  Compaction writes exactly
        these.
        """
        if self.node_id is not None:
            yield WalOp(OP_IDENTITY, (self.node_id,))
        for node_id, (host, port) in self.peers.items():
            yield WalOp(OP_MEMBER, (node_id, host, port))
        for store in self.stores:
            for key, value in self.entries(store):
                yield WalOp(OP_PUT, (store, key, value))
        for query_key, targets in self.cache.items():
            for msd_key in targets:
                yield WalOp(OP_CACHE_INSERT, (query_key, msd_key))

    def entries(self, store: str) -> list[tuple[str, str]]:
        """Flat (key, value) pairs of one store, in stored order."""
        return [
            (key, value)
            for key, values in self.stores[store].items()
            for value in values
        ]


# -- one node's durable state ----------------------------------------------


@dataclass
class RecoveryReport:
    """What one :class:`DurableNodeState` recovery found."""

    #: True when any persisted state existed in the data dir.
    recovered: bool = False
    index_entries: int = 0
    file_entries: int = 0
    cache_entries: int = 0
    peers: int = 0
    wal_records: int = 0
    corrupt_records: int = 0
    truncated_bytes: int = 0
    replay_ms: float = 0.0


class DurableNodeState:
    """One node's data directory: one log + the materialized state.

    Construction *is* recovery: the log is replayed (torn tails
    truncated, corrupt records skipped with a warning) and reopened for
    appending.  The resulting :attr:`state` is what the owner re-applies
    to its in-memory stores; :attr:`report` says how much came back and
    how long replay took.

    The instance then implements the storage-journal protocol
    (``record_put`` / ``record_remove_value`` / ``record_remove_key`` /
    ``record_cache_insert`` / ``record_member`` / ``record_drop_node``),
    so it plugs directly into
    :meth:`repro.storage.store.DHTStorage.attach_journal` and the index
    service's cache-journal hook.  Every journaled operation also
    updates the materialized state, which is what periodic compaction
    rewrites the log as.

    Layout of ``data_dir``::

        wal.log       the record log (this module's framing)
        wal.log.tmp   a compaction in flight; never read
        wal.log.v<N>  a log of another format version, set aside unread
    """

    WAL_NAME = "wal.log"
    #: Appended records after which :meth:`compact` rewrites the log.
    COMPACT_EVERY = 8192

    def __init__(
        self, data_dir: str, *, fsync: str | FsyncPolicy = "interval"
    ) -> None:
        self.data_dir = data_dir
        policy = (
            fsync if isinstance(fsync, FsyncPolicy) else FsyncPolicy.parse(fsync)
        )
        os.makedirs(data_dir, exist_ok=True)
        self.wal_path = os.path.join(data_dir, self.WAL_NAME)
        started = time.perf_counter()
        self.state = NodeState()
        ops, replay = replay_wal(self.wal_path)
        for record in ops:
            self.state.apply(record)
        counters.wal_recoveries += 1
        self.report = RecoveryReport(
            recovered=replay.records > 0,
            index_entries=sum(
                len(values) for values in self.state.stores["index"].values()
            ),
            file_entries=sum(
                len(values) for values in self.state.stores["file"].values()
            ),
            cache_entries=sum(
                len(targets) for targets in self.state.cache.values()
            ),
            peers=len(self.state.peers),
            wal_records=replay.records,
            corrupt_records=replay.corrupt_records,
            truncated_bytes=replay.truncated_bytes,
            replay_ms=(time.perf_counter() - started) * 1000.0,
        )
        self.wal = WriteAheadLog(self.wal_path, policy)
        self._appends_since_compaction = 0

    # -- journal protocol ----------------------------------------------------
    #
    # One journal serves one node (a daemon owns exactly one; the
    # simulator's ``NodeWalSet`` routes by the ``node`` every call names).

    def _append(self, op: int, fields: tuple) -> None:
        self.wal.append(op, fields)
        self.state.apply(WalOp(op, fields))
        self._appends_since_compaction += 1
        if self._appends_since_compaction >= self.COMPACT_EVERY:
            self.compact()

    def record_put(self, node: int, store: str, key: str, value: str) -> None:
        """Journal one replica placement on ``node``."""
        self._append(OP_PUT, (store, key, value))

    def record_remove_value(
        self, node: int, store: str, key: str, value: str
    ) -> None:
        """Journal one value removed from ``key`` on ``node``."""
        self._append(OP_REMOVE_VALUE, (store, key, value))

    def record_remove_key(self, node: int, store: str, key: str) -> None:
        """Journal a whole key dropped from ``node``."""
        self._append(OP_REMOVE_KEY, (store, key))

    def record_cache_insert(
        self, node: int, query_key: str, msd_key: str
    ) -> None:
        """Journal one cache shortcut created on ``node``."""
        self._append(OP_CACHE_INSERT, (query_key, msd_key))

    def record_member(self, node_id: int, host: str, port: int) -> None:
        """Journal one membership entry (deduplicated against state)."""
        if self.state.peers.get(node_id) != (host, port):
            self._append(OP_MEMBER, (node_id, host, port))

    def record_identity(self, node_id: int) -> None:
        """Journal this node's own ring identity (written once)."""
        if self.state.node_id != node_id:
            self._append(OP_IDENTITY, (node_id,))

    def record_drop_node(self, node: int) -> None:
        """A node's copies are gone (departure): nothing to keep here.

        A single-node journal only ever sees its own node; dropping it
        means the daemon itself is departing, which the owner handles by
        deleting the data dir -- so this is a no-op at this layer.
        """

    # -- lifecycle -----------------------------------------------------------

    def flush(self) -> None:
        """Fsync the log (the SIGTERM / graceful-shutdown path)."""
        self.wal.flush()

    def compact(self) -> int:
        """Rewrite the log as the materialized state; returns its size."""
        self._appends_since_compaction = 0
        return self.wal.rewrite(self.state.records())

    def close(self) -> None:
        """Graceful shutdown: flush and release the log."""
        self.wal.close()

    def abandon(self) -> None:
        """SIGKILL semantics: drop the handle without flushing."""
        self.wal.abandon()


# -- per-node journal fan-out (simulation) ----------------------------------


class NodeWalSet:
    """One :class:`DurableNodeState` per node, behind one journal surface.

    The simulator's stores host *every* node, so its journal must route
    each operation to the owning node's log.  Logs are created lazily on
    first write (``root/node-<id:x>/``); a node that never stores
    anything never touches the disk.  Restart chaos then works on one
    victim at a time: :meth:`kill` (clean SIGKILL) or :meth:`power_loss`
    (kill mid-write: the unsynced log tail is torn), followed by
    :meth:`recover`, which replays the log and reopens it for the node's
    next life.
    """

    def __init__(self, root: str, fsync: str | FsyncPolicy = "interval") -> None:
        self.root = root
        self.fsync = (
            fsync if isinstance(fsync, FsyncPolicy) else FsyncPolicy.parse(fsync)
        )
        os.makedirs(root, exist_ok=True)
        self._states: dict[int, DurableNodeState] = {}
        #: Nodes whose journal was killed and not yet recovered: writes
        #: during the outage window would be lost in reality, and the
        #: storage layer must not journal on a dead node's behalf.
        self._down: set[int] = set()

    def node_dir(self, node: int) -> str:
        """The data directory holding ``node``'s log."""
        return os.path.join(self.root, f"node-{node:x}")

    def _state_for(self, node: int) -> Optional[DurableNodeState]:
        if node in self._down:
            return None
        state = self._states.get(node)
        if state is None:
            state = DurableNodeState(self.node_dir(node), fsync=self.fsync)
            self._states[node] = state
        return state

    # -- journal protocol (routing) -----------------------------------------

    def record_put(self, node: int, store: str, key: str, value: str) -> None:
        """Route one replica placement to ``node``'s journal."""
        state = self._state_for(node)
        if state is not None:
            state.record_put(node, store, key, value)

    def record_remove_value(
        self, node: int, store: str, key: str, value: str
    ) -> None:
        """Route one value removal to ``node``'s journal."""
        state = self._state_for(node)
        if state is not None:
            state.record_remove_value(node, store, key, value)

    def record_remove_key(self, node: int, store: str, key: str) -> None:
        """Route a whole-key drop to ``node``'s journal."""
        state = self._state_for(node)
        if state is not None:
            state.record_remove_key(node, store, key)

    def record_cache_insert(
        self, node: int, query_key: str, msd_key: str
    ) -> None:
        """Route one cache shortcut to ``node``'s journal."""
        state = self._state_for(node)
        if state is not None:
            state.record_cache_insert(node, query_key, msd_key)

    def record_drop_node(self, node: int) -> None:
        """A node departed for good: its durable state goes with it --
        also when its journal is down (killed, not yet recovered), or a
        later ``recover`` of the id would replay the departed node."""
        self.kill(node)
        self._down.discard(node)
        directory = self.node_dir(node)
        if os.path.isdir(directory):
            for name in os.listdir(directory):
                os.remove(os.path.join(directory, name))

    # -- restart chaos -------------------------------------------------------

    def kill(self, node: int) -> None:
        """SIGKILL the node's journal: no flush, handle dropped."""
        state = self._states.pop(node, None)
        if state is not None:
            state.abandon()
        self._down.add(node)

    def power_loss(self, node: int) -> int:
        """Kill mid-write: additionally tear the unsynced log tail.

        Returns the number of bytes the outage destroyed.
        """
        state = self._states.get(node)
        synced = state.wal.synced_size if state is not None else 0
        self.kill(node)
        wal_path = os.path.join(self.node_dir(node), DurableNodeState.WAL_NAME)
        return tear_wal(wal_path, synced)

    def recover(self, node: int) -> DurableNodeState:
        """Bring a killed node's journal back: replay and reopen."""
        self._down.discard(node)
        state = DurableNodeState(self.node_dir(node), fsync=self.fsync)
        self._states[node] = state
        return state

    def close(self) -> None:
        """Flush and release every node's journal."""
        for state in self._states.values():
            state.close()
        self._states.clear()
