"""The durable layer: WAL framing, compaction, and crash-recovery edges.

Covers the degradation matrix recovery promises: torn tails truncate,
corrupt-CRC records are skipped with a warning (valid prefix kept), an
empty data dir recovers to nothing, a log of another format version is
set aside rather than appended to, a stray compaction file is never
read, and repeated kill/recover/repair cycles are idempotent.
"""

import os
import struct
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import NodeCache
from repro.dht.ring import IdealRing
from repro.perf import counters
from repro.storage.durable import (
    DURABLE_VERSION,
    OP_CACHE_INSERT,
    OP_IDENTITY,
    OP_MEMBER,
    OP_PUT,
    OP_REMOVE_KEY,
    OP_REMOVE_VALUE,
    RECORD_PREFIX_BYTES,
    WAL_HEADER,
    WAL_HEADER_BYTES,
    WAL_MAGIC,
    DurableNodeState,
    FsyncPolicy,
    NodeState,
    NodeWalSet,
    WalError,
    WriteAheadLog,
    decode_record_body,
    encode_record_body,
    frame_record,
    replay_wal,
    tear_wal,
)
from repro.storage.store import DHTStorage, replay_durable_state

BITS = 32


# -- fsync policy -----------------------------------------------------------


def test_fsync_policy_parses_all_modes():
    assert FsyncPolicy.parse("always").mode == "always"
    assert FsyncPolicy.parse("never").mode == "never"
    assert FsyncPolicy.parse("interval") == FsyncPolicy("interval", 64)
    assert FsyncPolicy.parse("interval:8") == FsyncPolicy("interval", 8)


@pytest.mark.parametrize(
    "spec", ["sometimes", "interval:0", "interval:x", "always:3", ""]
)
def test_fsync_policy_rejects_bad_specs(spec):
    with pytest.raises(WalError):
        FsyncPolicy.parse(spec)


# -- record encoding --------------------------------------------------------


BIG_ID = (1 << 159) + 12345  # a realistic 160-bit node id


@pytest.mark.parametrize(
    "op, fields",
    [
        (OP_PUT, ("index", "author=kaashoek", "msd:42")),
        (OP_REMOVE_VALUE, ("file", "msd:42", "article-bytes")),
        (OP_REMOVE_KEY, ("index", "title=chord")),
        (OP_CACHE_INSERT, ("author=stoica", "msd:7")),
        (OP_MEMBER, (BIG_ID, "127.0.0.1", 7001)),
        (OP_IDENTITY, (BIG_ID,)),
    ],
)
def test_record_roundtrip(op, fields):
    record = decode_record_body(encode_record_body(op, fields))
    assert record.op == op
    assert record.fields == fields


def test_unknown_op_raises():
    with pytest.raises(WalError):
        encode_record_body(99, ())
    body = struct.pack(">B", 99)
    with pytest.raises(WalError):
        decode_record_body(body)


def test_trailing_bytes_rejected():
    body = encode_record_body(OP_IDENTITY, (5,)) + b"junk"
    with pytest.raises(WalError):
        decode_record_body(body)


# -- WAL append / replay ----------------------------------------------------


def wal_with_records(path, count=5, fsync=FsyncPolicy("never")):
    wal = WriteAheadLog(path, fsync)
    for index in range(count):
        wal.append(OP_PUT, ("index", f"key-{index}", f"value-{index}"))
    return wal


def test_wal_appends_replay_in_order(tmp_path):
    path = str(tmp_path / "wal.log")
    wal_with_records(path, count=5).close()
    ops, report = replay_wal(path)
    assert [op.fields[1] for op in ops] == [f"key-{i}" for i in range(5)]
    assert report.records == 5
    assert not report.repaired


def test_wal_survives_abandon_without_flush(tmp_path):
    # SIGKILL semantics: unbuffered appends are in the OS regardless of
    # the fsync policy, so nothing acknowledged is lost.
    path = str(tmp_path / "wal.log")
    wal_with_records(path, count=3, fsync=FsyncPolicy("never")).abandon()
    ops, report = replay_wal(path)
    assert report.records == 3 and not report.repaired


def test_torn_tail_is_truncated(tmp_path):
    path = str(tmp_path / "wal.log")
    wal_with_records(path, count=4).close()
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(size - 7)  # cut the last record in half
    ops, report = replay_wal(path)  # a clean torn tail truncates silently
    assert report.records == 3
    assert report.repaired and report.truncated_bytes > 0
    # The file was repaired in place: a second replay is clean.
    ops, report = replay_wal(path)
    assert report.records == 3 and not report.repaired


def test_corrupt_crc_keeps_valid_prefix(tmp_path):
    path = str(tmp_path / "wal.log")
    wal = WriteAheadLog(path, FsyncPolicy("never"))
    offsets = [wal.size]
    for index in range(4):
        wal.append(OP_PUT, ("index", f"key-{index}", f"value-{index}"))
        offsets.append(wal.size)
    wal.close()
    # Flip one body byte of the third record: its CRC no longer matches.
    with open(path, "r+b") as handle:
        handle.seek(offsets[2] + RECORD_PREFIX_BYTES + 2)
        byte = handle.read(1)
        handle.seek(-1, os.SEEK_CUR)
        handle.write(bytes((byte[0] ^ 0xFF,)))
    with pytest.warns(RuntimeWarning, match="CRC mismatch"):
        ops, report = replay_wal(path)
    assert [op.fields[1] for op in ops] == ["key-0", "key-1"]
    assert report.corrupt_records == 1
    assert report.repaired  # the corrupt suffix was cut off
    ops, report = replay_wal(path)  # prefix remains readable
    assert report.records == 2 and not report.repaired


def test_absurd_length_prefix_is_corruption_not_allocation(tmp_path):
    path = str(tmp_path / "wal.log")
    wal = wal_with_records(path, count=2)
    wal.close()
    with open(path, "ab") as handle:
        handle.write(struct.pack(">II", 0x7FFFFFFF, 0) + b"x" * 8)
    with pytest.warns(RuntimeWarning, match="absurd record length"):
        ops, report = replay_wal(path)
    assert report.records == 2 and report.corrupt_records == 1


def test_bad_header_starts_empty(tmp_path):
    path = str(tmp_path / "wal.log")
    with open(path, "wb") as handle:
        handle.write(b"NOPE" + b"\x00" * 20)
    with pytest.warns(RuntimeWarning, match="bad or torn header"):
        ops, report = replay_wal(path)
    assert ops == [] and report.repaired
    assert os.path.getsize(path) == 0
    # A fresh log can be started over the repaired file.
    WriteAheadLog(path, FsyncPolicy("never")).close()
    assert os.path.getsize(path) == WAL_HEADER_BYTES


def test_missing_file_replays_nothing(tmp_path):
    ops, report = replay_wal(str(tmp_path / "absent.log"))
    assert ops == [] and report.records == 0 and not report.repaired


def test_tear_wal_respects_the_fsync_line(tmp_path):
    path = str(tmp_path / "wal.log")
    wal = WriteAheadLog(path, FsyncPolicy("never"))
    wal.append(OP_PUT, ("index", "synced", "v"))
    wal.flush()
    synced = wal.synced_size
    wal.append(OP_PUT, ("index", "unsynced", "v"))
    wal.abandon()
    torn = tear_wal(path, synced)
    assert torn > 0
    assert os.path.getsize(path) >= synced
    ops, report = replay_wal(path)
    assert [op.fields[1] for op in ops] == ["synced"]
    assert report.repaired  # the half-kept unsynced record was torn


# -- the state as records ---------------------------------------------------


def sample_state():
    state = NodeState(node_id=BIG_ID)
    state.peers = {BIG_ID: ("127.0.0.1", 7000), 3: ("::1", 7001)}
    state.stores["index"]["author=liben-nowell"] = ["msd:1", "msd:2"]
    state.stores["index"]["author=balakrishnan"] = ["msd:3"]
    state.stores["file"]["msd:1"] = ["article"]
    state.cache["author=karger"] = ["msd:2", "msd:1"]
    state.cache["author=kaashoek"] = ["msd:3"]
    return state


def ordered(state):
    """A NodeState with its dict orders made visible to ``==``: they
    decide which shortcuts a bounded cache keeps after a restart."""
    return (
        state.node_id,
        list(state.peers.items()),
        [(label, list(store.items())) for label, store in state.stores.items()],
        list(state.cache.items()),
    )


def test_records_roundtrip_through_apply(tmp_path):
    # records() is the inverse of apply, through the log's own codec:
    # what a compaction writes is what a recovery rebuilds.
    path = str(tmp_path / "wal.log")
    wal = WriteAheadLog(path, FsyncPolicy("never"))
    wal.rewrite(sample_state().records())
    wal.close()
    assert os.listdir(tmp_path) == ["wal.log"]
    ops, _ = replay_wal(path)
    rebuilt = NodeState()
    for record in ops:
        rebuilt.apply(record)
    assert ordered(rebuilt) == ordered(sample_state())
    assert list(NodeState().records()) == []


# -- DurableNodeState recovery edges ----------------------------------------


def test_empty_data_dir_recovers_to_nothing(tmp_path):
    durable = DurableNodeState(str(tmp_path / "node"))
    assert durable.report.recovered is False
    assert durable.report.index_entries == 0
    assert durable.state.entries("index") == durable.state.entries("file") == []
    durable.close()


def test_journal_then_recover(tmp_path):
    data_dir = str(tmp_path / "node")
    durable = DurableNodeState(data_dir, fsync="never")
    durable.record_identity(7)
    durable.record_member(7, "127.0.0.1", 7000)
    durable.record_put(7, "index", "author=morris", "msd:5")
    durable.record_cache_insert(7, "title=dht", "msd:5")
    durable.abandon()

    recovered = DurableNodeState(data_dir)
    assert recovered.report.recovered
    assert recovered.state.node_id == 7
    assert recovered.state.peers[7] == ("127.0.0.1", 7000)
    assert recovered.state.entries("index") == [("author=morris", "msd:5")]
    assert recovered.state.cache == {"title=dht": ["msd:5"]}
    recovered.close()


@pytest.mark.parametrize(
    "version", [1, DURABLE_VERSION + 1], ids=["older", "newer"]
)
def test_log_of_another_version_is_set_aside_not_appended_to(tmp_path, version):
    """A log this build cannot read moves to ``wal.log.v<N>`` untouched,
    and the acknowledged writes that follow land in a new log: appended
    behind the foreign header, the next recovery would ignore them all."""
    data_dir = str(tmp_path / "node")
    os.makedirs(data_dir)
    foreign = WAL_MAGIC + bytes((version,)) + b"records this build cannot read"
    with open(os.path.join(data_dir, "wal.log"), "wb") as handle:
        handle.write(foreign)
    with pytest.warns(RuntimeWarning, match="speaks version"):
        durable = DurableNodeState(data_dir, fsync="always")
    assert not durable.report.recovered
    durable.record_put(1, "index", "acknowledged", "v")
    durable.abandon()

    recovered = DurableNodeState(data_dir)
    assert recovered.state.entries("index") == [("acknowledged", "v")]
    recovered.close()
    assert sorted(os.listdir(data_dir)) == ["wal.log", f"wal.log.v{version}"]
    with open(os.path.join(data_dir, f"wal.log.v{version}"), "rb") as handle:
        assert handle.read() == foreign


def test_compaction_resets_the_log_and_survives_restart(tmp_path):
    """Compaction rewrites the log as the state: removed entries leave
    it, and the rewritten log is all a restart needs."""
    data_dir = str(tmp_path / "node")
    durable = DurableNodeState(data_dir, fsync="never")
    durable.COMPACT_EVERY = 4
    before = counters.wal_compactions
    for index in range(10):
        durable.record_put(1, "index", f"key-{index}", "v")
    for index in range(5):
        durable.record_remove_key(1, "index", f"key-{index}")
    assert counters.wal_compactions - before == 3  # after appends 4, 8, 12
    durable.compact()
    ops, _ = replay_wal(durable.wal_path, repair=False)
    assert ops == list(durable.state.records())  # the log is the state
    assert len(ops) == 5
    durable.abandon()
    assert os.listdir(data_dir) == ["wal.log"]

    recovered = DurableNodeState(data_dir)
    assert recovered.state == durable.state
    assert recovered.report.wal_records == 5
    recovered.close()


GHOST = frame_record(encode_record_body(OP_PUT, ("index", "ghost", "v")))


@pytest.mark.parametrize(
    "stray",
    [b"", WAL_HEADER + GHOST[:-3], WAL_HEADER + GHOST],
    ids=["empty", "torn", "complete"],
)
def test_stray_compaction_file_is_ignored_then_overwritten(tmp_path, stray):
    """A ``wal.log.tmp`` left by a crash before the rename is never
    read, and the next compaction writes over it."""
    data_dir = str(tmp_path / "node")
    durable = DurableNodeState(data_dir, fsync="never")
    durable.record_put(1, "index", "kept", "v")
    durable.abandon()
    with open(os.path.join(data_dir, "wal.log.tmp"), "wb") as handle:
        handle.write(stray)

    recovered = DurableNodeState(data_dir, fsync="never")
    assert recovered.state.entries("index") == [("kept", "v")]
    recovered.compact()
    assert os.listdir(data_dir) == ["wal.log"]
    recovered.abandon()
    again = DurableNodeState(data_dir)
    assert again.state.entries("index") == [("kept", "v")]
    again.close()


def test_recovery_is_idempotent_across_repeated_restarts(tmp_path):
    data_dir = str(tmp_path / "node")
    durable = DurableNodeState(data_dir, fsync="never")
    for index in range(5):
        durable.record_put(1, "index", f"key-{index}", f"value-{index}")
    durable.record_remove_key(1, "index", "key-0")
    durable.abandon()
    snapshots = []
    for _ in range(3):  # crash again before ever compacting
        durable = DurableNodeState(data_dir, fsync="never")
        snapshots.append(durable.state.entries("index"))
        durable.abandon()
    assert snapshots[0] == snapshots[1] == snapshots[2]
    assert ("key-0", "value-0") not in snapshots[0]
    assert len(snapshots[0]) == 4


# -- storage integration: kill / recover / repair cycles --------------------


def build_store(walset):
    protocol = IdealRing.bulk_build([100, 200, 300, 400], bits=BITS)
    store = DHTStorage(protocol, replication=2)
    store.attach_journal(walset, "index")
    return protocol, store


def test_repair_after_replay_is_idempotent(tmp_path):
    """The repeated-restart loop: kill, recover, replay, repair -- twice.

    The second cycle must neither duplicate entries nor journal spurious
    records: recovered state re-applies cleanly every time.
    """
    walset = NodeWalSet(str(tmp_path), fsync="never")
    protocol, store = build_store(walset)
    for index in range(20):
        store.put(f"key-{index}", f"value-{index}")
    baseline = {
        node: sorted(store.items_at(node)) for node in protocol.node_ids
    }
    victim = 200
    for _ in range(2):
        walset.kill(victim)
        store.forget_node(victim)
        assert store.items_at(victim) == []
        durable = walset.recover(victim)
        replayed = store.replay_entries(
            victim, durable.state.entries("index")
        )
        assert replayed == len(baseline[victim])
        report = store.repair()
        assert report.keys_repaired == 0  # replay restored everything
        assert {
            node: sorted(store.items_at(node)) for node in protocol.node_ids
        } == baseline
    walset.close()


def test_power_loss_loses_only_the_unsynced_tail(tmp_path):
    walset = NodeWalSet(str(tmp_path), fsync=FsyncPolicy("interval", 4))
    protocol, store = build_store(walset)
    for index in range(30):
        store.put(f"key-{index}", f"value-{index}")
    victim = max(
        protocol.node_ids, key=lambda node: len(store.items_at(node))
    )
    before = len(store.items_at(victim))
    torn = walset.power_loss(victim)
    assert torn > 0
    store.forget_node(victim)
    durable = walset.recover(victim)
    survived = store.replay_entries(victim, durable.state.entries("index"))
    assert 0 < survived < before  # fsync interval bounds the loss
    report = store.repair()  # the replicas restore the lost tail
    assert report.keys_repaired > 0
    assert len(store.items_at(victim)) == before
    walset.close()


def test_shared_recovery_replays_cache_shortcuts_in_journal_order(tmp_path):
    """The one restart recovery (simulator and daemon both call it): a
    bounded cache that overflowed before the kill comes back holding the
    *last-written* shortcuts, not the alphabetically-last ones -- and
    replaying journals nothing."""
    walset = NodeWalSet(str(tmp_path), fsync="never")
    protocol = IdealRing.bulk_build([100, 200, 300, 400], bits=BITS)
    index_store = DHTStorage(protocol, replication=2)
    file_store = DHTStorage(protocol, replication=2)
    index_store.attach_journal(walset, "index")
    file_store.attach_journal(walset, "file")
    victim = 200
    index_store.put_local(victim, "index-key", "index-value")
    file_store.put_local(victim, "file-key", "file-value")
    # Written in descending key order, so "most recent" and "sorts last"
    # pick opposite ends of the journal.
    written = [f"query-{serial:02d}" for serial in range(11, -1, -1)]
    for query_key in written:
        walset.record_cache_insert(victim, query_key, f"msd-of-{query_key}")
    walset.kill(victim)
    index_store.forget_node(victim)
    file_store.forget_node(victim)
    cache = NodeCache(capacity=4)
    durable = walset.recover(victim)
    size_before = durable.wal.size
    entries, cache_entries = replay_durable_state(
        durable, victim, index_store, file_store, cache
    )
    assert entries == 2
    assert cache_entries == len(written)  # every insert changed state
    assert len(cache) == 4
    assert all(query_key in cache for query_key in written[-4:])
    assert index_store.values_at(victim, "index-key") == ("index-value",)
    assert file_store.values_at(victim, "file-key") == ("file-value",)
    assert durable.wal.size == size_before  # replay did not re-log
    walset.close()


def test_dropping_a_killed_node_deletes_its_journal(tmp_path):
    """Churn can remove a node whose journal a restart event took down:
    the departure still deletes the files and clears the outage, so a
    later node under the same id recovers nothing of the departed one."""
    walset = NodeWalSet(str(tmp_path), fsync="never")
    walset.record_put(7, "index", "author=morris", "msd:5")
    walset.kill(7)
    walset.record_drop_node(7)
    assert os.listdir(walset.node_dir(7)) == []
    # Not down any more: the id journals again at once ...
    walset.record_put(7, "index", "title=dht", "msd:6")
    walset.kill(7)
    # ... and recovers only what its new life wrote.
    recovered = walset.recover(7)
    assert recovered.state.entries("index") == [("title=dht", "msd:6")]
    walset.record_drop_node(7)
    state = walset.recover(7).state
    assert state.entries("index") == state.entries("file") == []
    walset.close()


# -- property: any journal script recovers to its model ----------------------

STORES = st.sampled_from(["index", "file"])
KEYS = st.sampled_from(["k0", "k1", "k2"])
VALUES = st.sampled_from(["v0", "v1"])
NODE_IDS = st.sampled_from([3, BIG_ID])
STEPS = st.one_of(
    st.tuples(st.just("put"), STORES, KEYS, VALUES),
    st.tuples(st.just("remove_value"), STORES, KEYS, VALUES),
    st.tuples(st.just("remove_key"), STORES, KEYS),
    st.tuples(st.just("cache"), KEYS, VALUES),
    st.tuples(
        st.just("member"),
        NODE_IDS,
        st.sampled_from(["127.0.0.1", "::1"]),
        st.integers(1, 65535),
    ),
    st.tuples(st.just("identity"), NODE_IDS),
    st.just(("compact",)),
    st.just(("restart",)),
)


def model_step(model, step):
    """What one journal step does to the plain-dict model."""
    kind, *args = step
    if kind == "put":
        store, key, value = args
        values = model["stores"][store].setdefault(key, [])
        if value not in values:
            values.append(value)
    elif kind == "remove_value":
        store, key, value = args
        values = model["stores"][store].get(key, [])
        if value in values:
            values.remove(value)
            if not values:
                del model["stores"][store][key]
    elif kind == "remove_key":
        store, key = args
        model["stores"][store].pop(key, None)
    elif kind == "cache":
        query_key, msd_key = args
        targets = model["cache"].setdefault(query_key, [])
        if msd_key not in targets:
            targets.append(msd_key)
    elif kind == "member":
        node_id, host, port = args
        model["peers"][node_id] = (host, port)
    elif kind == "identity":
        model["node_id"] = args[0]


def open_journal(data_dir):
    durable = DurableNodeState(data_dir, fsync="never")
    durable.COMPACT_EVERY = 5  # automatic compactions mid-script too
    return durable


def journal_step(durable, data_dir, step):
    """Run one step against the journal; returns the live journal."""
    kind, *args = step
    if kind == "put":
        durable.record_put(1, *args)
    elif kind == "remove_value":
        durable.record_remove_value(1, *args)
    elif kind == "remove_key":
        durable.record_remove_key(1, *args)
    elif kind == "cache":
        durable.record_cache_insert(1, *args)
    elif kind == "member":
        durable.record_member(*args)
    elif kind == "identity":
        durable.record_identity(*args)
    elif kind == "compact":
        durable.compact()
    else:  # SIGKILL, then recover from the disk alone
        durable.abandon()
        durable = open_journal(data_dir)
    return durable


@settings(max_examples=60, deadline=None)
@given(st.lists(STEPS, max_size=30))
def test_any_journal_script_recovers_to_its_model(script):
    """After every step of a random script -- compactions and restarts
    anywhere in it -- the state replayed from the one log equals a
    plain-dict model of the script, and the data dir holds one file."""
    with tempfile.TemporaryDirectory() as root:
        data_dir = os.path.join(root, "node")
        durable = open_journal(data_dir)
        model = {
            "node_id": None,
            "peers": {},
            "stores": {"index": {}, "file": {}},
            "cache": {},
        }
        try:
            for step in script:
                durable = journal_step(durable, data_dir, step)
                model_step(model, step)
                expected = NodeState(**model)
                assert ordered(durable.state) == ordered(expected)
                ops, _ = replay_wal(durable.wal_path, repair=False)
                recovered = NodeState()
                for record in ops:
                    recovered.apply(record)
                assert ordered(recovered) == ordered(expected)
        finally:
            durable.close()
        assert os.listdir(data_dir) == ["wal.log"]
