"""Integration: a 5-daemon loopback cluster serves real lookups.

The acceptance bar for the rpc subsystem: boot five node daemons on
loopback sockets, publish a seeded corpus through the wire client, and
resolve at least 50 covering-chain lookups with 100% success -- every
exchange travelling through the TCP codec path.
"""

import random
import time

import pytest

from repro.core.query import FieldQuery
from repro.obs.reader import load_trace
from repro.obs.tracer import Tracer
from repro.rpc.cluster import LocalCluster
from repro.workload.corpus import CorpusConfig, SyntheticCorpus

NUM_NODES = 5
NUM_RECORDS = 20
NUM_LOOKUPS = 50
SEED = 1234


@pytest.fixture(scope="module")
def cluster():
    with LocalCluster(NUM_NODES, substrate="chord", cache="multi") as booted:
        yield booted


@pytest.fixture(scope="module")
def corpus():
    return SyntheticCorpus(
        CorpusConfig(num_articles=NUM_RECORDS, num_authors=7, seed=SEED)
    )


@pytest.fixture(scope="module")
def populated_client(cluster, corpus):
    tracer = Tracer(meta={"harness": "test_local_cluster"})
    client = cluster.client(tracer=tracer)
    for record in corpus.records:
        client.insert_record(record)
    yield client, tracer
    client.close()


def test_membership_converged(cluster):
    assert len(cluster.daemons) == NUM_NODES
    for daemon in cluster.daemons:
        assert set(daemon.peers) == set(cluster.node_ids)


def test_node_ids_are_deterministic(cluster):
    assert cluster.node_ids == LocalCluster(NUM_NODES).node_ids


def test_every_daemon_answers_ping(cluster, populated_client):
    client, _ = populated_client
    for node_id in cluster.node_ids:
        assert client.ping(node_id)


def test_records_are_spread_across_daemons(cluster, populated_client):
    holders = [
        daemon
        for daemon in cluster.daemons
        if daemon.index_store.entries_on_node(daemon.node_id) > 0
    ]
    assert len(holders) >= 2, "all index entries landed on one daemon"


def test_fifty_lookups_all_succeed_over_the_wire(
    cluster, corpus, populated_client, tmp_path
):
    client, tracer = populated_client
    entry_classes = client.scheme.entry_classes()
    rng = random.Random(SEED)
    started = time.monotonic()
    found = 0
    for _ in range(NUM_LOOKUPS):
        record = rng.choice(corpus.records)
        keyset = rng.choice(entry_classes)
        query = FieldQuery.msd_of(record).restrict(sorted(keyset))
        trace = client.search(query, record)
        found += trace.found
        assert not trace.gave_up
    elapsed = time.monotonic() - started
    assert found == NUM_LOOKUPS, f"only {found}/{NUM_LOOKUPS} lookups found"
    assert elapsed < 60.0, f"lookups took {elapsed:.1f}s on loopback"

    # The observability trace survives the wire path end to end.
    trace_path = tmp_path / "cluster_trace.jsonl"
    events = tracer.write_jsonl(str(trace_path))
    assert events > 0
    trace_file = load_trace(str(trace_path))
    finished = [span for span in trace_file.lookups if span.end is not None]
    assert len(finished) >= NUM_LOOKUPS
    assert all(span.found for span in finished)
    # Loop-driven lookups record their route hops, under their own span:
    # a request and a response leg per interaction (plus shortcut legs),
    # the response leg carrying the measured round trip -- and the span
    # grammar of tests/obs/test_trace_properties.py holds on the wire.
    for span in finished:
        kinds = [event.kind for event in span.events]
        assert kinds[0] == "lookup_start" and kinds[-1] == "lookup_end"
        assert span.end.data["hops"] == span.hops
        assert span.hops >= 2 * span.end.data["interactions"] > 0
        hops = span.of_kind("dht_route_hop")
        responses = [hop for hop in hops if hop.data["leg"] == "response"]
        assert len(responses) == span.end.data["interactions"]
        assert all(hop.data["latency_ms"] > 0.0 for hop in responses)


def test_search_is_reproducible_across_clients(cluster, corpus):
    """Same seed, fresh client: identical results and targets.

    Interaction counts may differ (earlier lookups seed the daemons'
    shortcut caches), but what is found must not.
    """
    outcomes = []
    for _ in range(2):
        client = cluster.client()
        rng = random.Random(99)
        run = []
        for _ in range(10):
            record = rng.choice(corpus.records)
            query = FieldQuery.msd_of(record).restrict(["author"])
            trace = client.search(query, record)
            run.append((trace.found, trace.result_msd))
        client.close()
        outcomes.append(run)
    assert outcomes[0] == outcomes[1]
