"""A publication and a start-up push travel as one insert batch per daemon.

- One publish on a signed 5-daemon, replication-3 cluster sends at most
  one request frame per destination daemon (21 single-entry frames
  before batching), and signs each frame and its ACK once.
- A durable daemon's start-up push offers its entries in at most one
  request per peer, beside its one ``pull`` per peer; entries past
  ``BATCH_LIMIT`` go in further batches.
- A ``pull`` reply or push batch at its size limit still fits the
  codec's payload entry count.
"""

import pytest

from repro.core.query import RecordKeys
from repro.net.message import Message, MessageKind
from repro.perf import counters
from repro.rpc.cluster import LocalCluster
from repro.rpc.codec import encode_message
from repro.rpc.daemon import NodeDaemon
from repro.workload.corpus import CorpusConfig, SyntheticCorpus


@pytest.fixture(scope="module")
def corpus():
    return SyntheticCorpus(CorpusConfig(num_articles=12, num_authors=5, seed=77))


def destinations(client, record) -> set[int]:
    """The daemons a record's file and index replicas are placed on."""
    keys = RecordKeys(record)
    placed = set(client.file_store.responsible_nodes(keys.msd_key))
    for source_key, _ in client.scheme.mappings_for(keys):
        placed.update(client.index_store.responsible_nodes(source_key))
    return placed


def test_a_signed_publish_sends_one_frame_per_destination_daemon(corpus):
    with LocalCluster(5, replication=3, signed=True) as cluster:
        client = cluster.client()
        try:
            for record in corpus.records:
                expected = len(destinations(client, record))
                requests, signs = counters.rpc_requests, counters.sec_sign_calls
                client.insert_record(record)
                assert counters.rpc_requests - requests <= expected <= 5
                assert counters.sec_sign_calls - signs <= 2 * expected
            held = sum(
                daemon.index_store.entries_on_node(daemon.node_id)
                for daemon in cluster.daemons
            )
            assert held > 3 * len(corpus.records)
        finally:
            client.close()


def restart_counting_sync(tmp_path, corpus, monkeypatch):
    """Kill and restart a durable daemon; returns the restarted daemon,
    the requests its start-up sync sent, and its peer count."""
    frames = []
    sync = NodeDaemon._sync_with_peers

    async def counted(daemon):
        before = counters.rpc_requests
        await sync(daemon)
        frames.append((counters.rpc_requests - before, len(daemon.peers) - 1))

    with LocalCluster(3, replication=2, data_root=str(tmp_path)) as cluster:
        client = cluster.client()
        try:
            for record in corpus.records:
                client.insert_record(record)
        finally:
            client.close()
        cluster.kill_node(1)
        monkeypatch.setattr(NodeDaemon, "_sync_with_peers", counted)
        restarted = cluster.restart_node(1)
    ((requests, peers),) = frames
    return restarted, requests, peers


def test_a_durable_restart_pushes_one_batch_per_peer(tmp_path, corpus, monkeypatch):
    _, requests, peers = restart_counting_sync(tmp_path, corpus, monkeypatch)
    pushes = requests - peers  # one pull per peer, then the push
    assert 1 <= pushes <= peers


def test_a_push_past_the_limit_goes_in_further_batches(
    tmp_path, corpus, monkeypatch
):
    monkeypatch.setattr(NodeDaemon, "BATCH_LIMIT", 4)
    restarted, requests, peers = restart_counting_sync(tmp_path, corpus, monkeypatch)
    held = restarted._held_for().values()
    assert requests - peers == sum(-(-len(items) // 12) for items in held) > peers


def test_a_batch_at_its_limit_fits_the_codec():
    triples = ("i", "key", "value") * NodeDaemon.BATCH_LIMIT
    for payload in (("entries",) + triples, triples):
        encode_message(
            Message(MessageKind.INDEX_INSERT, "user:0", "daemon@h:1", payload)
        )
