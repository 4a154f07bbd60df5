"""The incremental pass against the per-key oracle, where it is incremental.

``test_repair_differential`` builds 8 nodes: at replication 3 a couple of
changes there mark arcs that cover the ring, and the pass walks the whole
catalogue.  The same twin stores are driven here over 48 nodes -- so most
passes visit a few arcs only -- with ``drop_node`` and ``forget_node`` in
the alphabet, then through the counter-examples the arc rule alone gets
wrong, and last against a closed form: how much of a 500-node catalogue
one leave and one join may make a pass visit.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht import SUBSTRATES, build_substrate
from repro.storage.store import DHTStorage, RepairReport
from tests.storage import test_repair_differential as differential
from tests.storage.repair_oracle import repair_per_key
from tests.storage.test_repair_differential import BITS, apply, node_id, stores_of

START_NODES = 48


def build(substrate: str, replication: int):
    """The differential's ``build`` over 48 start nodes instead of 8."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(differential, "START_NODES", START_NODES)
        return differential.build(substrate, replication)


keys = st.sampled_from([f"key-{index}" for index in range(40)])
values = st.sampled_from(["v0", "v1", "v2", "vé"])
picks = st.integers(0, 120)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("put"), keys, values),
        st.tuples(st.just("put_local"), keys, values, picks),
        st.tuples(st.just("remove_key"), keys),
        st.tuples(st.just("remove_value"), keys, values),
        st.tuples(st.just("join"), st.integers(START_NODES, 120)),
        st.tuples(st.just("leave"), picks),
        st.tuples(st.just("crash"), picks),
        st.tuples(st.just("recover"), picks),
        st.tuples(st.just("drop_node"), picks),
        st.tuples(st.just("forget_node"), picks),
        st.tuples(st.just("repair")),
    ),
    max_size=40,
)


def step(store: DHTStorage, operation: tuple) -> None:
    """``apply`` plus the two store wipes the simulator's chaos performs."""
    if operation[0] in ("drop_node", "forget_node"):
        members = store.protocol.node_ids
        getattr(store, operation[0])(members[operation[1] % len(members)])
    else:
        apply(store, operation)


def run_twins(substrate: str, replication: int, script: list) -> DHTStorage:
    """Drive twin stores through ``script`` (and a closing pass); after
    every pass reports, stores, journals and diagnostics must be equal."""
    real, real_journal, _ = build(substrate, replication)
    twin, twin_journal, _ = build(substrate, replication)
    for operation in [*script, ("repair",)]:
        if operation[0] != "repair":
            step(real, operation)
            step(twin, operation)
            continue
        assert real.repair() == repair_per_key(twin)
        assert stores_of(real) == stores_of(twin)
        assert real_journal.records == twin_journal.records
        assert real.under_replicated_keys() == twin.under_replicated_keys()
    return real


@pytest.mark.parametrize("replication", [1, 3])
@pytest.mark.parametrize("substrate", sorted(SUBSTRATES))
@given(script=operations)
@settings(max_examples=60, deadline=None)
def test_same_repair_as_the_per_key_pass_at_48_nodes(substrate, replication, script):
    run_twins(substrate, replication, script)


def populate(count: int = 40) -> list:
    return [("put", f"key-{index}", "v0") for index in range(count)]


@pytest.mark.parametrize("replication", [1, 3])
@pytest.mark.parametrize("substrate", sorted(SUBSTRATES))
class TestWhatTheArcsAloneGetWrong:
    def test_put_local_off_placement_then_the_node_leaves(
        self, substrate, replication
    ):
        """(a) The only copy of a key sat half a ring away from the nodes
        responsible for it, on a node that left: the key lies in no arc."""
        probe, _, _ = build(substrate, replication)
        key = "only-copy"
        members = probe.protocol.node_ids
        primary = members.index(probe.responsible_nodes(key)[0])
        pick = (primary + len(members) // 2) % len(members)
        real = run_twins(
            substrate,
            replication,
            [
                *populate(),
                ("put_local", key, "v0", pick),
                ("leave", pick),
            ],
        )
        assert real.get(key).values == ("v0",)

    def test_leave_then_rejoin_under_the_same_id(self, substrate, replication):
        """(b) Equal rings before and after, different placement: the
        node's copies left with it and it rejoins holding nothing.  A
        log sees that, a diff of two ring snapshots cannot."""
        real, _, _ = build(substrate, replication)
        twin, _, _ = build(substrate, replication)
        victim = real.responsible_nodes("key-0")[0]
        for store in (real, twin):
            for operation in populate():
                apply(store, operation)
            store.protocol.remove_node(victim)
            store.drop_node(victim)
            store.protocol.add_node(victim)
        report = real.repair()
        assert report == repair_per_key(twin)
        assert report.keys_repaired > 0
        assert stores_of(real) == stores_of(twin)
        assert real.under_replicated_keys() == []

    def test_crashed_replica_that_missed_a_copy_is_owed_it(
        self, substrate, replication
    ):
        """A leave hands keys to nodes that are down: the pass cannot
        pay them, remembers them, and the first pass after they recover
        does -- with no membership change in between to mark anything."""
        real, _, _ = build(substrate, replication)
        twin, _, _ = build(substrate, replication)
        members = real.protocol.node_ids
        leaver = members.index(real.responsible_nodes("key-0")[0])
        for store in (real, twin):
            for operation in populate():
                apply(store, operation)
            for offset in (-2, -1, 1, 2):
                store.protocol.fail_node(members[(leaver + offset) % len(members)])
            store.protocol.remove_node(members[leaver])
        assert real.repair() == repair_per_key(twin)
        for store in (real, twin):
            for offset in (-2, -1, 1, 2):
                store.protocol.recover_node(members[(leaver + offset) % len(members)])
        report = real.repair()
        assert report == repair_per_key(twin)
        assert stores_of(real) == stores_of(twin)
        if type(real.protocol).primary_is_ring_neighbour:
            assert report.copies_created > 0
        assert real.under_replicated_keys() == []
        assert real.repair() == RepairReport()

    def test_three_adjacent_nodes_leave_before_one_pass(
        self, substrate, replication
    ):
        """Keys whose every holder is gone are re-created from the
        catalogue, as the full walk did."""
        probe, _, _ = build(substrate, replication)
        members = probe.protocol.node_ids
        real = run_twins(
            substrate,
            replication,
            [*populate(), ("leave", 10), ("leave", 10), ("leave", 10)],
        )
        assert set(members[10:13]).isdisjoint(real.protocol.node_ids)
        assert real.under_replicated_keys() == []
        assert all(real.get(f"key-{index}").found for index in range(40))

    def test_store_over_a_churned_protocol_starts_at_the_logs_end(
        self, substrate, replication
    ):
        protocol = build_substrate(
            substrate, sorted({node_id(serial) for serial in range(START_NODES)}), BITS
        )
        protocol.add_node(node_id(START_NODES))
        protocol.remove_node(protocol.node_ids[5])
        assert protocol.membership_log[0] is None  # the bulk build
        store = DHTStorage(protocol, replication=replication)
        lookups = count_lookups(protocol)
        assert store.repair() == RepairReport()
        for index in range(40):
            store.put(f"key-{index}", "v0")
        lookups.clear()
        assert store.repair() == RepairReport()
        assert lookups == []


def count_lookups(protocol) -> list:
    """Shadow ``protocol.lookup`` on the instance; returns the list every
    call's key is appended to.  Counted from the test: nothing in ``src/``
    knows."""
    seen: list = []
    lookup = protocol.lookup

    def counted(key, *args, **kwargs):
        seen.append(key)
        return lookup(key, *args, **kwargs)

    protocol.lookup = counted
    return seen


class TestAClosedFormNotATiming:
    """500 nodes, replication 3: one leave and one join mark two arcs of
    ``r + 1`` gaps each, so a pass is expected to visit ``2 (r + 1) / N``
    of the catalogue; twice that is the ceiling."""

    NODES, KEYS, REPLICATION, BITS = 500, 6000, 3, 32

    def churned(self, substrate: str):
        rng = random.Random(2004)
        members = rng.sample(range(1 << self.BITS), self.NODES + 1)
        protocol = build_substrate(substrate, members[:-1], self.BITS)
        store = DHTStorage(protocol, replication=self.REPLICATION)
        for index in range(self.KEYS):
            store.put(f"key-{index}", "v")
        lookups = count_lookups(protocol)
        protocol.remove_node(members[rng.randrange(self.NODES)])
        protocol.add_node(members[-1])
        lookups.clear()  # a substrate may route while it joins
        return store, lookups

    def test_one_leave_and_one_join_visit_two_arcs(self):
        store, lookups = self.churned("ideal")
        report = store.repair()
        ceiling = 2 * 2 * (self.REPLICATION + 1) / self.NODES * self.KEYS
        assert 0 < report.keys_repaired <= len(lookups) <= ceiling
        assert store.under_replicated_keys() == []

    def test_nothing_changed_costs_nothing(self):
        store, lookups = self.churned("ideal")
        store.repair()
        lookups.clear()
        assert store.repair() == RepairReport()
        victim = store.protocol.node_ids[7]
        store.protocol.fail_node(victim)
        store.protocol.recover_node(victim)
        assert store.repair() == RepairReport()
        assert lookups == []

    @pytest.mark.parametrize("substrate", ["kademlia", "can"])
    def test_no_arc_rule_visits_the_whole_catalogue(self, substrate):
        store, lookups = self.churned(substrate)
        assert store.repair().keys_repaired > 0
        assert len(lookups) == self.KEYS
        lookups.clear()
        assert store.repair() == RepairReport()
        assert lookups == []
