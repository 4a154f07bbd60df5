"""One failover core, two drivers: the blocking and ``_async`` names agree.

``IndexService`` writes its replica loop once (``_replica_steps``) and
runs it inline (``_drive``, behind ``query_key`` / ``fetch_file``) or
over the event kernel (``_drive_async``, behind ``query_key_async`` /
``fetch_file_async``).  Each scenario below drives the stack those names
build through both -- the scheduled one on a zero-latency clock -- with
and without a trust ledger, and must come out identical in everything
but time: the answer or the error reason, the metered bytes, the
``repro.perf`` counter deltas, the ledger's scores, the Figure 15 set of
replicas that answered and the chaos RNG's state afterwards.
"""

import random

import pytest

from repro import perf
from repro.core.fields import ARTICLE_SCHEMA, Record
from repro.core.query import FieldQuery
from repro.core.scheme import simple_scheme
from repro.core.service import IndexService
from repro.dht.idspace import hash_key
from repro.dht.ring import IdealRing
from repro.net.adversary import ROLE_POISONER, ROLE_SYBIL
from repro.net.faults import FaultPlan, FaultyTransport
from repro.net.latency import ZeroLatency
from repro.net.message import MessageKind, TrafficCategory
from repro.net.transport import DeliveryError, SimulatedTransport
from repro.sec.trust import TrustLedger
from repro.sim.kernel import EventKernel
from repro.storage.store import DHTStorage

RECORD = Record(
    ARTICLE_SCHEMA,
    {
        "author": "John_Smith",
        "title": "TCP",
        "conf": "SIGCOMM",
        "year": "1989",
        "size": "315635",
    },
)
MSD = FieldQuery.msd_of(RECORD)
#: An index key of the record whose entry set is non-empty.
AUTHOR_KEY = FieldQuery(ARTICLE_SCHEMA, {"author": "John_Smith"}).key()
USER = "user:t"


def build(trusted):
    """A 12-node ring, replication 3, one record, fault-injecting transport
    with verification on (so a poisoner's answer fails verification)."""
    ring = IdealRing(64)
    for index in range(12):
        ring.add_node(hash_key(f"node-{index}", 64))
    rng = random.Random(5)
    transport = FaultyTransport(
        SimulatedTransport(),
        # A drop probability that never fires keeps the fault draws on
        # the path, so the RNG comparison sees every exchange.
        FaultPlan(drop_probability=1e-12),
        rng=rng,
        verify=True,
    )
    trust = TrustLedger() if trusted else None
    service = IndexService(
        ARTICLE_SCHEMA,
        simple_scheme(),
        DHTStorage(ring, replication=3),
        DHTStorage(ring, replication=3),
        transport,
        trust=trust,
    )
    transport.register(USER, lambda message: None)
    service.insert_record(RECORD)
    return service, transport, trust, rng


def first_order(service, store, key):
    """The replica order the stack's *first* request for ``key`` uses
    (rotation starts at one; every replica is still trusted)."""
    nodes = store.responsible_nodes(key)
    return [service.endpoint_name(node) for node in nodes[1:] + nodes[:1]]


def crash(*positions):
    return lambda transport, order: [
        transport.fail_node(order[position]) for position in positions
    ]


def role(position, name):
    return lambda transport, order: transport.mark(order[position], name)


def withheld_then(arrange_second):
    def arrange(transport, order):
        transport.mark(order[0], ROLE_SYBIL)
        arrange_second(transport, order)

    return arrange


#: name -> (operation, arrangement of the replicas in try order).
SCENARIOS = {
    "clean": ("query", lambda transport, order: None),
    "crashed-first-replica": ("query", crash(0)),
    "verify-failed-first-replica": ("query", role(0, ROLE_POISONER)),
    "withheld-then-answered": (
        "query", withheld_then(lambda transport, order: None)
    ),
    "withheld-then-dropped": (
        "query",
        withheld_then(lambda transport, order: transport.eclipse(order[1])),
    ),
    "withheld-then-all-down": ("query", withheld_then(crash(1, 2))),
    "all-replicas-down": ("query", crash(0, 1, 2)),
    "fetch-clean": ("fetch", lambda transport, order: None),
    "fetch-crashed-first-replica": ("fetch", crash(0)),
    "fetch-all-replicas-down": ("fetch", crash(0, 1, 2)),
}


def observe(name, trusted, scheduled, public=False):
    """Run one scenario through one driver; return everything but time.

    ``public`` goes through the public name instead, which keeps no
    Figure 15 set (``touched`` stays empty).
    """
    operation, arrange = SCENARIOS[name]
    service, transport, trust, rng = build(trusted)
    fetch = operation == "fetch"
    store = service.file_store if fetch else service.index_store
    key = MSD.key() if fetch else AUTHOR_KEY
    order = first_order(service, store, key)
    arrange(transport, order)
    meter = transport.meter
    bytes_before = {c: meter.bytes_for(c) for c in TrafficCategory}
    before = perf.snapshot()
    outcomes = []
    touched = set()
    kind = MessageKind.FILE_REQUEST if fetch else MessageKind.QUERY_REQUEST

    def on_done(result):
        outcomes.append(
            result if fetch else
            (result.node, result.entries, result.shortcuts, result.file_found)
        )

    def on_error(error):
        outcomes.append((error.reason, error.destination))

    # The same stack the public names build: routed only when scheduled.
    steps = service._replica_steps(kind, key, USER, scheduled, touched)
    if scheduled:
        kernel = EventKernel()
        transport.bind_clock(kernel, ZeroLatency())
        if not public:
            service._drive_async(steps, on_done, on_error)
        elif fetch:
            service.fetch_file_async(MSD, USER, on_done, on_error)
        else:
            service.query_key_async(key, USER, on_done, on_error)
        kernel.run()
    else:
        try:
            if not public:
                on_done(service._drive(steps))
            elif fetch:
                on_done(service.fetch_file(MSD, USER))
            else:
                on_done(service.query_key(key, USER))
        except DeliveryError as error:
            on_error(error)
    (outcome,) = outcomes
    return {
        "outcome": outcome,
        "bytes": {
            c: meter.bytes_for(c) - bytes_before[c] for c in TrafficCategory
        },
        "touched": touched,
        "counters": perf.delta(before, perf.snapshot()),
        "scores": None if trust is None else [trust.score(n) for n in order],
        "sends": transport.sends,
        "rng": rng.getstate(),
    }, order


@pytest.mark.parametrize("trusted", [False, True], ids=["no-ledger", "ledger"])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_blocking_and_async_names_agree(name, trusted):
    inline, _ = observe(name, trusted, scheduled=False)
    scheduled, _ = observe(name, trusted, scheduled=True)
    assert scheduled == inline


@pytest.mark.parametrize("scheduled", [False, True], ids=["inline", "kernel"])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_public_names_drive_the_same_stack(name, scheduled):
    stack, _ = observe(name, True, scheduled)
    named, _ = observe(name, True, scheduled, public=True)
    assert named.pop("touched") == set()
    stack.pop("touched")
    assert named == stack


class TestTheScenariosAreWhatTheySay:
    """Spot checks, so the table above cannot pass vacuously."""

    def test_crashed_first_replica_fails_over(self):
        seen, order = observe("crashed-first-replica", True, scheduled=True)
        assert seen["counters"]["service_failovers"] == 1
        assert seen["counters"]["fault_crashed_sends"] == 1
        assert seen["outcome"][1], "the second replica's entries came back"
        assert list(seen["touched"]) == [order[1]]

    def test_verify_failure_penalizes_and_fails_over(self):
        seen, order = observe(
            "verify-failed-first-replica", True, scheduled=True
        )
        assert seen["counters"]["sec_verify_failures"] == 1
        assert seen["scores"][0] < seen["scores"][1]
        assert seen["outcome"][1]

    def test_second_opinion_contradicts_the_withholder(self):
        seen, order = observe("withheld-then-answered", True, scheduled=True)
        assert seen["counters"]["sec_contradictions"] == 1
        assert seen["outcome"][1], "the honest replica's entries win"
        # Figure 15 credits both replicas that answered this one query.
        assert sorted(seen["touched"]) == sorted(order[:2])
        unled, _ = observe("withheld-then-answered", False, scheduled=True)
        assert unled["outcome"][1] == [], "no ledger: the empty answer stands"

    @pytest.mark.parametrize("scheduled", [False, True])
    def test_a_drop_outranks_a_pending_empty_answer(self, scheduled):
        # The sequential rule: a transient error propagates for the
        # engine's retry even while an uncorroborated empty answer is
        # pending -- the withholder must not be believed by default.
        seen, order = observe("withheld-then-dropped", True, scheduled)
        assert seen["outcome"] == (DeliveryError.DROPPED, order[1])
        assert list(seen["touched"]) == [order[0]]

    def test_uncorroborated_empty_answer_is_still_an_answer(self):
        seen, order = observe("withheld-then-all-down", True, scheduled=True)
        assert seen["outcome"][1] == []
        assert seen["counters"]["service_failovers"] == 2

    def test_all_replicas_down_reports_the_last_error(self):
        seen, order = observe("all-replicas-down", True, scheduled=True)
        assert seen["outcome"] == (DeliveryError.CRASHED, order[2])
