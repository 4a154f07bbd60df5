"""Durable daemons: kill/restart cycles, power loss, and SIGTERM flush.

Two harnesses cover the restart matrix:

- :class:`LocalCluster` with a ``data_root`` runs in-process daemons
  whose ``kill_node`` drops the WAL handle without flushing (SIGKILL
  semantics) and optionally tears the unsynced tail (power loss);
- ``python -m repro.node --data-dir`` as a real subprocess gets actual
  SIGKILL/SIGTERM, proving the recovery path against a process the
  kernel really killed.
"""

import os
import random
import signal
import subprocess
import sys
import time

import pytest

from repro.core.query import FieldQuery
from repro.perf import counters
from repro.rpc.cluster import LocalCluster
from repro.storage.durable import OP_PUT, DurableNodeState, replay_wal
from repro.workload.corpus import CorpusConfig, SyntheticCorpus

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)
NUM_NODES = 3
NUM_RECORDS = 12
SEED = 77


@pytest.fixture(scope="module")
def corpus():
    return SyntheticCorpus(
        CorpusConfig(num_articles=NUM_RECORDS, num_authors=5, seed=SEED)
    )


def durable_cluster(tmp_path, fsync="interval:8"):
    return LocalCluster(
        NUM_NODES,
        substrate="chord",
        cache="single",
        replication=2,
        data_root=str(tmp_path / "cluster"),
        fsync=fsync,
    )


def populate(cluster, corpus):
    client = cluster.client()
    for record in corpus.records:
        client.insert_record(record)
    return client


def assert_all_found(client, corpus, lookups=10, seed=SEED):
    rng = random.Random(seed)
    for _ in range(lookups):
        record = rng.choice(corpus.records)
        query = FieldQuery.msd_of(record).restrict(["author"])
        trace = client.search(query, record)
        assert trace.found, f"lost {query.key()} after restart"


def test_kill_restart_recovers_entries_and_identity(tmp_path, corpus):
    with durable_cluster(tmp_path) as cluster:
        client = populate(cluster, corpus)
        assert_all_found(client, corpus)
        victim = cluster.daemons[1]
        victim_node = victim.node_id
        held_before = victim.index_store.entries_on_node(victim_node)
        assert held_before > 0, "victim held nothing; test is vacuous"

        cluster.kill_node(1)
        restarted = cluster.restart_node(1)

        assert restarted.node_id == victim_node  # identity from the WAL
        assert restarted.recovery is not None
        assert restarted.recovery.recovered
        assert restarted.recovery.index_entries > 0
        # Every live daemon agrees on the membership again.
        for daemon in cluster.daemons:
            assert set(daemon.peers) == set(cluster.node_ids)
        # Zero lost acknowledged entries: the recovered daemon holds at
        # least what it held at the kill (repair may add more).
        held_after = restarted.index_store.entries_on_node(victim_node)
        assert held_after >= held_before
        client.refresh_members(cluster.daemons[0].address)
        assert_all_found(client, corpus)
        client.close()


def test_power_loss_tears_the_tail_but_lookups_survive(tmp_path, corpus):
    # fsync=never maximizes the unsynced tail: the power loss is
    # guaranteed to tear real bytes, and replication must cover them.
    with durable_cluster(tmp_path, fsync="never") as cluster:
        client = populate(cluster, corpus)
        cluster.kill_node(1, power_loss=True)
        restarted = cluster.restart_node(1)
        assert restarted.recovery is not None
        assert restarted.recovery.truncated_bytes > 0  # the torn record
        client.refresh_members(cluster.daemons[0].address)
        assert_all_found(client, corpus)
        client.close()


def test_double_restart_is_idempotent(tmp_path, corpus):
    """Kill/restart the same daemon twice: replaying the journal twice
    must not duplicate entries or change what the node holds."""
    with durable_cluster(tmp_path) as cluster:
        client = populate(cluster, corpus)
        victim_node = cluster.daemons[2].node_id
        cluster.kill_node(2)
        first = cluster.restart_node(2)
        held_first = sorted(first.index_store.items_at(victim_node))
        cluster.kill_node(2)
        second = cluster.restart_node(2)
        assert sorted(second.index_store.items_at(victim_node)) == held_first
        client.refresh_members(cluster.daemons[0].address)
        assert_all_found(client, corpus)
        client.close()


def test_record_fsynced_before_the_kill_survives_a_power_loss(
    tmp_path, monkeypatch
):
    """The power loss tears only what was never fsynced -- measured when
    the daemon is dead, not when the kill was requested: a write that
    lands and is fsynced in between is below the fsync line."""
    with durable_cluster(tmp_path, fsync="always") as cluster:
        victim = cluster.daemons[1]
        kill = victim.kill

        def write_then_kill():
            victim.index_store.put_local(victim.node_id, "late-key", "late-value")
            kill()

        monkeypatch.setattr(victim, "kill", write_then_kill)
        cluster.kill_node(1, power_loss=True)
        ops, report = replay_wal(victim.durable.wal_path, repair=False)
        assert not report.repaired  # nothing torn
        assert ops[-1].op == OP_PUT
        assert ops[-1].fields == ("index", "late-key", "late-value")
        restarted = cluster.restart_node(1)
        assert restarted.recovery.truncated_bytes == 0


def test_restart_across_a_compaction_recovers_entries_and_cache(
    tmp_path, corpus, monkeypatch
):
    """Daemons whose logs were compacted under load come back with the
    entries and shortcuts they held, from the one rewritten file."""
    monkeypatch.setattr(DurableNodeState, "COMPACT_EVERY", 4)
    compactions = counters.wal_compactions
    with durable_cluster(tmp_path) as cluster:
        client = populate(cluster, corpus)
        assert_all_found(client, corpus)
        assert counters.wal_compactions > compactions
        victim_index = max(
            range(NUM_NODES),
            key=lambda i: len(cluster.daemons[i].durable.state.cache),
        )
        victim = cluster.daemons[victim_index]
        cluster.kill_node(victim_index)
        held = victim.durable.state  # everything journaled before the kill
        assert held.cache, "victim cached nothing; test is vacuous"
        data_dir = victim.data_dir
        assert os.listdir(data_dir) == ["wal.log"]

        restarted = cluster.restart_node(victim_index)
        recovery = restarted.recovery
        assert recovery.index_entries == len(held.entries("index"))
        assert recovery.file_entries == len(held.entries("file"))
        assert recovery.cache_entries == sum(map(len, held.cache.values()))
        cache = restarted.service.caches[restarted.node_id]
        assert all(query_key in cache for query_key in held.cache)
        client.refresh_members(cluster.daemons[0].address)
        assert_all_found(client, corpus)
        client.close()
    assert os.listdir(data_dir) == ["wal.log"]


# -- real subprocess: actual SIGKILL / SIGTERM ------------------------------


def spawn_daemon(data_dir, fsync="never"):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.node",
            "--listen", "127.0.0.1:0",
            "--substrate", "chord",
            "--scheme", "simple",
            "--data-dir", data_dir,
            "--fsync", fsync,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    ready = process.stdout.readline().strip()
    # READY keeps its exact 3-token protocol; durability facts go on a
    # separate RECOVERY line so existing wrappers keep working.
    parts = ready.split(" ")
    assert len(parts) == 3 and parts[0] == "READY", repr(ready)
    recovery = process.stdout.readline().strip()
    assert recovery.startswith("RECOVERY "), repr(recovery)
    host, _, port = parts[1].rpartition(":")
    fields = dict(
        pair.split("=") for pair in recovery.removeprefix("RECOVERY ").split(" ")
    )
    return process, (host, int(port)), fields


def wire_insert(loop_address, corpus):
    # Imported here: the module monkeypatches nothing, but ClusterClient
    # needs a private loop thread per call site.
    import asyncio
    import threading

    from repro.rpc.cluster import ClusterClient

    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    client = ClusterClient(loop, loop_address, substrate="chord", scheme="simple")
    try:
        for record in corpus.records[:3]:
            client.insert_record(record)
        record = corpus.records[0]
        query = FieldQuery.msd_of(record).restrict(["author"])
        trace = client.search(query, record)
        return trace.found
    finally:
        client.close()
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5)
        loop.close()


def test_sigkilled_subprocess_recovers_on_restart(tmp_path, corpus):
    data_dir = str(tmp_path / "node0")
    process, address, fields = spawn_daemon(data_dir)
    try:
        assert fields["entries"] == "0"  # fresh dir: nothing to recover
        assert wire_insert(address, corpus)
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=10)
        assert process.returncode != 0  # killed, not graceful

        restarted, address2, fields2 = spawn_daemon(data_dir)
        try:
            # Zero lost acknowledged entries: unbuffered appends survive
            # SIGKILL under every fsync policy, even "never".
            assert int(fields2["entries"]) > 0
            assert int(fields2["wal_records"]) > 0
            record = corpus.records[0]
            query = FieldQuery.msd_of(record).restrict(["author"])
            import asyncio
            import threading

            from repro.rpc.cluster import ClusterClient

            loop = asyncio.new_event_loop()
            thread = threading.Thread(target=loop.run_forever, daemon=True)
            thread.start()
            client = ClusterClient(
                loop, address2, substrate="chord", scheme="simple"
            )
            try:
                assert client.search(query, record).found
            finally:
                client.close()
                loop.call_soon_threadsafe(loop.stop)
                thread.join(timeout=5)
                loop.close()
        finally:
            restarted.send_signal(signal.SIGKILL)
            restarted.wait(timeout=10)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)


def test_sigterm_flushes_before_shutdown_line(tmp_path, corpus):
    data_dir = str(tmp_path / "node0")
    process, address, _ = spawn_daemon(data_dir, fsync="never")
    try:
        assert wire_insert(address, corpus)
        started = time.monotonic()
        process.send_signal(signal.SIGTERM)
        out, err = process.communicate(timeout=10)
        assert process.returncode == 0, err
        # SHUTDOWN is the last line, printed only after the WAL was
        # flushed and fsynced -- so by the time a supervisor sees it,
        # the data dir is durable even under fsync=never.
        assert out.strip().split("\n")[-1] == "SHUTDOWN"
        assert time.monotonic() - started < 10
        ops, report = replay_wal(os.path.join(data_dir, "wal.log"))
        assert ops and not report.repaired  # clean, complete log on disk
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)
