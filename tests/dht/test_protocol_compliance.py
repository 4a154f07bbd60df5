"""Protocol-compliance suite: one contract, five substrates.

The index layer depends only on the :class:`repro.dht.base.DHTProtocol`
contract; this suite pins that contract uniformly across the ideal ring,
Chord, Kademlia, Pastry, and CAN, so any future substrate can be dropped
in and validated by parametrization alone.
"""

import random

import pytest

from repro.dht.base import DHTProtocol, LookupResult
from repro.dht.can import CANNetwork
from repro.dht.chord import ChordNetwork
from repro.dht.kademlia import KademliaNetwork
from repro.dht.pastry import PastryNetwork
from repro.dht.ring import IdealRing

BITS = 16
SPACE = 1 << BITS


def build(name: str, node_ids: list[int]) -> DHTProtocol:
    if name == "ideal":
        ring = IdealRing(BITS)
        for node in node_ids:
            ring.add_node(node)
        return ring
    if name == "chord":
        return ChordNetwork.bulk_build(node_ids, bits=BITS)
    if name == "kademlia":
        return KademliaNetwork.bulk_build(node_ids, bits=BITS, k=6)
    if name == "pastry":
        return PastryNetwork.bulk_build(node_ids, bits=BITS, leaf_size=6)
    return CANNetwork.bulk_build(node_ids, bits=BITS, dimensions=2, seed=1)


SUBSTRATES = ("ideal", "chord", "kademlia", "pastry", "can")


@pytest.fixture(params=SUBSTRATES)
def substrate(request):
    rng = random.Random(17)
    node_ids = sorted(rng.sample(range(SPACE), 32))
    return build(request.param, node_ids), node_ids


def fresh_id(node_ids: list[int], seed: int) -> int:
    rng = random.Random(seed)
    return next(
        candidate
        for candidate in iter(lambda: rng.randrange(SPACE), None)
        if candidate not in set(node_ids)
    )


class TestContract:
    def test_node_ids_sorted_and_complete(self, substrate):
        network, node_ids = substrate
        assert network.node_ids == node_ids
        assert len(network) == len(node_ids)

    def test_membership_operator(self, substrate):
        network, node_ids = substrate
        assert node_ids[0] in network
        missing = next(i for i in range(SPACE) if i not in set(node_ids))
        assert missing not in network

    def test_lookup_returns_live_node(self, substrate):
        network, node_ids = substrate
        rng = random.Random(18)
        live = set(node_ids)
        for _ in range(100):
            result = network.lookup(rng.randrange(SPACE))
            assert isinstance(result, LookupResult)
            assert result.node in live

    def test_lookup_deterministic(self, substrate):
        network, _ = substrate
        rng = random.Random(19)
        for _ in range(30):
            key = rng.randrange(SPACE)
            assert network.lookup(key).node == network.lookup(key).node

    def test_every_key_has_exactly_one_owner(self, substrate):
        """Key ownership is a function: repeated resolution from any
        entry point of the protocol structure yields the same node."""
        network, _ = substrate
        rng = random.Random(20)
        for _ in range(25):
            key = rng.randrange(SPACE)
            owners = {network.lookup(key).node for _ in range(3)}
            assert len(owners) == 1

    def test_hops_and_path_reported(self, substrate):
        network, _ = substrate
        result = network.lookup(12345)
        assert result.hops >= 1
        assert len(result.path) >= 1
        assert result.path[-1] == result.node or result.node in result.path

    def test_out_of_space_key_rejected(self, substrate):
        network, _ = substrate
        with pytest.raises(ValueError):
            network.lookup(SPACE)

    def test_duplicate_add_rejected(self, substrate):
        network, node_ids = substrate
        with pytest.raises(ValueError):
            network.add_node(node_ids[0])

    def test_remove_missing_rejected(self, substrate):
        network, node_ids = substrate
        missing = next(i for i in range(SPACE) if i not in set(node_ids))
        with pytest.raises(KeyError):
            network.remove_node(missing)

    def test_join_then_leave_is_consistent(self, substrate):
        network, node_ids = substrate
        rng = random.Random(21)
        fresh = fresh_id(node_ids, 22)
        network.add_node(fresh)
        assert fresh in network
        # All lookups resolve to live nodes with the newcomer present.
        for _ in range(30):
            assert network.lookup(rng.randrange(SPACE)).node in set(
                network.node_ids
            )
        network.remove_node(fresh)
        assert fresh not in network
        for _ in range(30):
            result = network.lookup(rng.randrange(SPACE))
            assert result.node in set(network.node_ids)
            assert result.node != fresh

    def test_lookup_many_matches_single_lookups(self, substrate):
        """Resolution is a function of the membership, not of what was
        resolved before: a batch and the same keys taken again in another
        order agree (what lets ``repair`` skip keys no change moved)."""
        network, _ = substrate
        keys = [7, 99, 12345, SPACE - 1]
        batched = [network.lookup(key).node for key in keys]
        assert batched[::-1] == [
            network.lookup(key).node for key in reversed(keys)
        ]

    def test_crash_state_contract(self, substrate):
        """fail/recover mark transient crashes without leaving the overlay."""
        network, node_ids = substrate
        victim = node_ids[3]
        assert network.is_alive(victim)
        network.fail_node(victim)
        assert not network.is_alive(victim)
        assert victim in network  # crashed, but still a member
        assert [n for n in node_ids if not network.is_alive(n)] == [victim]
        # Routing still resolves keys (possibly to the crashed node --
        # callers check is_alive); the structure itself is untouched.
        assert network.lookup(12345).node in set(network.node_ids)
        network.recover_node(victim)
        assert all(network.is_alive(node) for node in node_ids)

    def test_fail_unknown_node_rejected(self, substrate):
        network, node_ids = substrate
        missing = next(i for i in range(SPACE) if i not in set(node_ids))
        with pytest.raises(KeyError):
            network.fail_node(missing)

    def test_recover_is_idempotent(self, substrate):
        network, node_ids = substrate
        network.recover_node(node_ids[0])  # never crashed: a no-op
        network.fail_node(node_ids[0])
        network.recover_node(node_ids[0])
        network.recover_node(node_ids[0])
        assert network.is_alive(node_ids[0])

    def test_departed_node_not_alive(self, substrate):
        network, node_ids = substrate
        fresh = fresh_id(node_ids, 23)
        network.add_node(fresh)
        network.fail_node(fresh)
        network.remove_node(fresh)
        # Departure trumps crash state: the node is simply not a member.
        assert not network.is_alive(fresh)

    def test_crashed_node_that_departs_rejoins_alive(self, substrate):
        """A crashed node that departs is gone, not crashed: the same id
        joining again is alive (storage reads it, repair copies to it)."""
        network, node_ids = substrate
        victim = node_ids[5]
        network.fail_node(victim)
        network.remove_node(victim)
        network.add_node(victim)
        assert all(network.is_alive(node) for node in network.node_ids)

    def test_single_node_network_owns_everything(self, substrate):
        network, _ = substrate
        # Build a one-node instance of the same class.
        one = build(
            type(network).__name__.replace("Network", "").lower()
            if not isinstance(network, IdealRing)
            else "ideal",
            [42],
        )
        for key in (0, 1, SPACE // 2, SPACE - 1):
            assert one.lookup(key).node == 42


class TestMembershipContract:
    """What the shared base owns: version, ring, checks, O(1) views."""

    def test_version_rises_by_one_per_change(self, substrate):
        network, node_ids = substrate
        built = type(network).bulk_build(node_ids, bits=BITS)
        assert built.membership_version == 1  # however many nodes went in
        joiner = fresh_id(node_ids, 31)
        before = network.membership_version
        network.add_node(joiner)
        assert network.membership_version == before + 1
        network.remove_node(node_ids[4])
        assert network.membership_version == before + 2
        network.fail_node(joiner)  # liveness is not membership
        network.recover_node(joiner)
        network.lookup(12345)
        assert network.membership_version == before + 2

    def test_rejected_changes_leave_version_and_members_alone(self, substrate):
        network, node_ids = substrate
        before = network.membership_version
        with pytest.raises(ValueError):
            network.add_node(node_ids[0])  # duplicate
        with pytest.raises(ValueError):
            network.add_node(SPACE)  # outside the space
        with pytest.raises(ValueError):
            network.add_node(-1)
        with pytest.raises(KeyError):
            network.remove_node(fresh_id(node_ids, 32))  # unknown leaver
        assert network.membership_version == before
        assert network.node_ids == node_ids

    def test_bulk_build_rejects_bad_memberships(self, substrate):
        network, node_ids = substrate
        with pytest.raises(ValueError, match="duplicate"):
            type(network).bulk_build(node_ids + node_ids[:1], bits=BITS)
        with pytest.raises(ValueError, match="outside"):
            type(network).bulk_build(node_ids + [SPACE], bits=BITS)

    def test_node_ids_is_ascending_and_fresh(self, substrate):
        network, node_ids = substrate
        network.add_node(fresh_id(node_ids, 33))
        network.remove_node(node_ids[0])
        listed = network.node_ids
        assert listed == sorted(listed)
        assert len(listed) == len(set(listed)) == len(node_ids)
        listed.clear()  # the caller's copy, not the overlay's ring
        assert len(network.node_ids) == len(node_ids)

    def test_size_membership_and_liveness_never_list_the_members(
        self, substrate, monkeypatch
    ):
        network, node_ids = substrate
        network.fail_node(node_ids[1])

        def listed(self):
            raise AssertionError("node_ids built on an O(1) path")

        monkeypatch.setattr(DHTProtocol, "node_ids", property(listed))
        monkeypatch.setattr(DHTProtocol, "_ordered", listed)
        assert len(network) == len(node_ids)
        assert node_ids[0] in network
        assert network.is_alive(node_ids[0])
        assert not network.is_alive(node_ids[1])
        assert not network.is_alive(fresh_id(node_ids, 34))

    def test_successors_wrap_and_truncate(self, substrate):
        network, _ = substrate
        small = type(network).bulk_build([10, 20, 30], bits=BITS)
        assert small.successors(10, 2) == [10, 20]
        assert small.successors(30, 2) == [30, 10]  # wraps past the top
        assert small.successors(20, 3) == [20, 30, 10]
        assert small.successors(20, 7) == [20, 30, 10]  # only three members
        assert small.successors(20, 1) == [20]
        small.remove_node(30)
        assert small.successors(20, 3) == [20, 10]
        with pytest.raises(KeyError):
            small.successors(30, 2)
