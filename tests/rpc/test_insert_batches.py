"""A publication and a start-up push travel as one insert batch per daemon.

- One publish on a signed 5-daemon, replication-3 cluster sends at most
  one request frame per destination daemon (21 single-entry frames
  before batching), and signs each frame and its ACK once.
- A durable daemon's start-up push offers its entries in at most one
  request per peer, beside its one ``pull`` per peer; entries past
  ``BATCH_LIMIT`` go in further batches.
- A ``pull`` is paged: a restarted daemon owed more than ``BATCH_LIMIT``
  triples by a peer asks again, from the last triple it got, until a
  short page, and receives them all; a boot with empty stores still
  costs one ``pull`` per peer.  The cursor is a triple, not an index: an
  entry removed between pages skips none of the rest.  A peer that
  ignores the cursor ends the pull at its second page.
- A ``pull`` reply or push batch at its size limit still fits the
  codec's payload entry count.
"""

import pytest

from repro.core.query import RecordKeys
from repro.net.message import Message, MessageKind
from repro.net.transport import DeliveryError
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


def count_syncs(monkeypatch) -> list[tuple[int, int, int]]:
    """From now on, each start-up sync's requests, ``pull`` pages served
    for it, and peer count, in the list returned."""
    frames, pulls = [], [0]
    sync, serve_pull = NodeDaemon._sync_with_peers, NodeDaemon._pull_payload

    async def counted(daemon):
        before, pulled = counters.rpc_requests, pulls[0]
        await sync(daemon)
        frames.append(
            (counters.rpc_requests - before, pulls[0] - pulled, len(daemon.peers) - 1)
        )

    def counted_pull(daemon, *args):
        pulls[0] += 1
        return serve_pull(daemon, *args)

    monkeypatch.setattr(NodeDaemon, "_sync_with_peers", counted)
    monkeypatch.setattr(NodeDaemon, "_pull_payload", counted_pull)
    return frames


def restart_counting_sync(tmp_path, corpus, monkeypatch):
    """Kill and restart a durable daemon; returns the restarted daemon,
    the pushes and pulls its start-up sync sent, and its peer count."""
    with LocalCluster(3, replication=2, data_root=str(tmp_path)) as cluster:
        client = cluster.client()
        try:
            for record in corpus.records:
                client.insert_record(record)
        finally:
            client.close()
        cluster.kill_node(1)
        frames = count_syncs(monkeypatch)
        restarted = cluster.restart_node(1)
    ((requests, pulls, peers),) = frames
    return restarted, requests - pulls, pulls, peers


def test_a_durable_restart_pushes_one_batch_per_peer(tmp_path, corpus, monkeypatch):
    _, pushes, pulls, peers = restart_counting_sync(tmp_path, corpus, monkeypatch)
    assert pulls == peers
    assert 1 <= pushes <= peers


def test_a_push_past_the_limit_goes_in_further_batches(
    tmp_path, corpus, monkeypatch
):
    monkeypatch.setattr(NodeDaemon, "BATCH_LIMIT", 4)
    restarted, pushes, pulls, peers = restart_counting_sync(
        tmp_path, corpus, monkeypatch
    )
    held = restarted._held_for().values()
    assert pushes == sum(-(-len(items) // 12) for items in held) > peers
    assert pulls > peers


def held_for(daemon, node_id: int) -> set[tuple[str, ...]]:
    """The ``(store, key, value)`` triples ``daemon`` holds for ``node_id``."""
    flat = daemon._held_for().get(node_id, [])
    return {tuple(flat[at:at + 3]) for at in range(0, len(flat), 3)}


def publish_while_down(cluster, node: int) -> None:
    """Kill daemon ``node`` and publish 30 records beside it."""
    records = SyntheticCorpus(
        CorpusConfig(num_articles=30, num_authors=8, seed=5)
    ).records
    cluster.kill_node(node)
    client = cluster.client()
    try:
        for record in records:
            try:
                client.insert_record(record)
            except DeliveryError:
                pass  # the down daemon's batch; the peers took theirs
    finally:
        client.close()


def test_a_restart_pulls_every_page_it_is_owed(tmp_path, monkeypatch):
    """30 records published while daemon 1 was down, pages of 4 triples:
    one restart brings daemon 1 every entry its peers hold for it."""
    monkeypatch.setattr(NodeDaemon, "BATCH_LIMIT", 4)
    with LocalCluster(3, replication=2, data_root=str(tmp_path)) as cluster:
        publish_while_down(cluster, 1)
        restarted = cluster.restart_node(1)
        holds = {
            (code, key, value)
            for code, store in restarted._stores.items()
            for key, values in store.items_at(restarted.node_id)
            for value in values
        }
        peers = [d for d in cluster.daemons if d is not restarted]
        owed = set().union(*(held_for(peer, restarted.node_id) for peer in peers))
        assert len(owed) > 4 * NodeDaemon.BATCH_LIMIT
        assert owed - holds == set()


def pages(peer, node_id: int, after=()) -> list[tuple[str, ...]]:
    """The triples of ``peer``'s pull pages for ``node_id`` from ``after``."""
    served = []
    while True:
        page = peer._pull_payload(node_id, *after)[1:]
        served += [page[at:at + 3] for at in range(0, len(page), 3)]
        if len(page) < 3 * NodeDaemon.BATCH_LIMIT:
            return served
        after = page[-3:]


def test_an_entry_removed_between_pages_skips_none_of_the_rest(
    tmp_path, monkeypatch
):
    """Page one is served, then its first entry is removed: the pages
    from its last triple on carry every other owed triple."""
    monkeypatch.setattr(NodeDaemon, "BATCH_LIMIT", 4)
    with LocalCluster(3, replication=2, data_root=str(tmp_path)) as cluster:
        publish_while_down(cluster, 1)
        owed_id = cluster.daemons[1].node_id
        peer = cluster.daemons[0]
        owed = held_for(peer, owed_id)
        first = peer._pull_payload(owed_id)[1:]
        code, key, value = first[:3]
        peer._stores[code].remove_value(key, value)
        rest = pages(peer, owed_id, first[-3:])
        assert len(owed) > 3 * NodeDaemon.BATCH_LIMIT
        assert set(rest) | {first[at:at + 3] for at in range(3, 12, 3)} == (
            owed - {(code, key, value)}
        )


def test_a_peer_that_ignores_the_cursor_ends_the_pull(tmp_path, monkeypatch):
    """A peer answering page one to every ``pull`` (an older daemon, or
    a faulty one) is asked twice, and the restart completes."""
    monkeypatch.setattr(NodeDaemon, "BATCH_LIMIT", 4)
    served: list[int] = []
    with LocalCluster(3, replication=2, data_root=str(tmp_path)) as cluster:
        publish_while_down(cluster, 1)
        for peer in (cluster.daemons[0], cluster.daemons[2]):
            def first_page(requester, *after, peer=peer):
                served.append(peer.node_id)
                assert len(served) < 20, "the pull never ended"
                return NodeDaemon._pull_payload(peer, requester)

            monkeypatch.setattr(peer, "_pull_payload", first_page)
        peers = [cluster.daemons[0].node_id, cluster.daemons[2].node_id]
        cluster.restart_node(1)
        assert sorted(served) == sorted(2 * peers)


def test_a_boot_with_empty_stores_pulls_once_per_peer(tmp_path, monkeypatch):
    monkeypatch.setattr(NodeDaemon, "BATCH_LIMIT", 4)
    frames = count_syncs(monkeypatch)
    with LocalCluster(3, replication=2, data_root=str(tmp_path)):
        pass
    assert frames and all(pulls == peers for _, pulls, peers in frames)


def test_a_batch_at_its_limit_fits_the_codec():
    triples = ("i", "key", "value") * NodeDaemon.BATCH_LIMIT
    for payload in (("entries",) + triples, triples):
        encode_message(
            Message(MessageKind.INDEX_INSERT, "user:0", "daemon@h:1", payload)
        )
