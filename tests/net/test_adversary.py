"""Unit tests for Byzantine fault injection (repro.net.adversary)."""

import random

import pytest

from repro import perf
from repro.core import service
from repro.net.adversary import (
    _SHORTCUT_MARK,
    NO_ADVERSARY,
    ROLE_LIAR,
    ROLE_POISONER,
    ROLE_SYBIL,
    AdversaryPlan,
)
from repro.net.faults import NO_FAULTS, FaultyTransport
from repro.net.message import Message, MessageKind
from repro.net.transport import DeliveryError, SimulatedTransport, TransportError


def echo_endpoint(received):
    def handle(message):
        received.append(message)
        if message.kind is MessageKind.FILE_REQUEST:
            return message.reply(MessageKind.FILE_RESPONSE, ("honest-file",))
        return message.reply(MessageKind.QUERY_RESPONSE, ("honest-entry",))

    return handle


def query(destination="node:1"):
    return Message(MessageKind.QUERY_REQUEST, "user:t", destination, ("q",))


def fetch(destination="node:1", key="k1"):
    return Message(MessageKind.FILE_REQUEST, "user:t", destination, (key,))


def insert(destination="node:1"):
    return Message(MessageKind.INDEX_INSERT, "user:t", destination, ("a", "b"))


@pytest.fixture
def wired():
    """Factory: (transport, received) over N echo endpoints."""

    def build(adversary=NO_ADVERSARY, rng=None, verify=False, nodes=3):
        inner = SimulatedTransport()
        received = []
        for i in range(1, nodes + 1):
            inner.register(f"node:{i}", echo_endpoint(received))
        transport = FaultyTransport(
            inner, NO_FAULTS, adversary=adversary, rng=rng, verify=verify
        )
        return transport, received

    return build


class TestPlan:
    def test_zero_plan_is_zero(self):
        assert NO_ADVERSARY.is_zero
        assert not AdversaryPlan(poisoners=1).is_zero
        assert not AdversaryPlan(eclipse_victims=1).is_zero

    def test_counts_validated(self):
        with pytest.raises(ValueError):
            AdversaryPlan(poisoners=-1)
        with pytest.raises(ValueError):
            AdversaryPlan(eclipse_victims=-1)


class TestShortcutMarkPin:
    def test_matches_the_service_constant(self):
        """The net layer hardcodes the mark to avoid importing core;
        this pin breaks if the service ever changes it."""
        assert _SHORTCUT_MARK == service.SHORTCUT_MARK


class TestZeroPlanTransparency:
    def test_no_rng_draws(self, wired):
        rng = random.Random(5)
        transport, _ = wired(NO_ADVERSARY, rng=rng)
        state = rng.getstate()
        for _ in range(10):
            transport.send(query())
        assert rng.getstate() == state


class TestRecruitment:
    def test_roles_are_disjoint_and_complete(self, wired):
        plan = AdversaryPlan(poisoners=2, liars=1, eclipse_victims=1)
        transport, _ = wired(plan, rng=random.Random(3), nodes=6)
        names = [f"node:{i}" for i in range(1, 7)]
        transport.recruit(names)
        assert len(transport.roles) == 3
        assert len(transport.eclipsed) == 1
        assert not transport.eclipsed & set(transport.roles)
        assert sorted(transport.roles.values()) == [
            ROLE_LIAR, ROLE_POISONER, ROLE_POISONER,
        ]

    def test_recruitment_is_deterministic(self, wired):
        plan = AdversaryPlan(poisoners=2, liars=2, eclipse_victims=1)
        names = [f"node:{i}" for i in range(1, 9)]
        populations = []
        for _ in range(2):
            transport, _ = wired(plan, rng=random.Random(77), nodes=8)
            transport.recruit(names)
            populations.append((dict(transport.roles), set(transport.eclipsed)))
        assert populations[0] == populations[1]

    def test_overdraft_rejected(self, wired):
        plan = AdversaryPlan(poisoners=5)
        transport, _ = wired(plan, rng=random.Random(1), nodes=3)
        with pytest.raises(ValueError):
            transport.recruit(["node:1", "node:2", "node:3"])

    def test_unknown_role_rejected(self, wired):
        transport, _ = wired()
        with pytest.raises(ValueError):
            transport.mark("node:1", "trickster")


class TestForgery:
    def test_poisoner_replaces_query_answers(self, wired):
        transport, received = wired()
        transport.mark("node:1", ROLE_POISONER)
        before = perf.counters.sec_poisoned_answers
        response = transport.send(query())
        assert all(entry.startswith("poison=") for entry in response.payload)
        assert perf.counters.sec_poisoned_answers == before + 1
        assert len(received) == 1  # the honest handler still ran

    def test_liar_forges_referrals(self, wired):
        transport, _ = wired()
        transport.mark("node:1", ROLE_LIAR)
        before = perf.counters.sec_forged_referrals
        response = transport.send(query())
        assert response.payload[0].startswith(_SHORTCUT_MARK + "forged:")
        assert perf.counters.sec_forged_referrals == before + 1

    def test_sybil_withholds(self, wired):
        transport, _ = wired()
        transport.mark("node:1", ROLE_SYBIL)
        assert transport.send(query()).payload == ()

    def test_any_role_poisons_file_fetches(self, wired):
        transport, _ = wired()
        transport.mark("node:1", ROLE_LIAR)
        before = perf.counters.sec_poisoned_results
        response = transport.send(fetch(key="desc-9"))
        # The forged fetch echoes the requested key: found=True with
        # attacker-controlled bytes.
        assert response.payload == ("desc-9",)
        assert perf.counters.sec_poisoned_results == before + 1

    def test_maintenance_traffic_passes_uncorrupted(self, wired):
        transport, received = wired()
        transport.mark("node:1", ROLE_POISONER)
        response = transport.send(insert())
        assert response is None or "poison" not in "".join(response.payload)
        assert len(received) == 1

    def test_honest_nodes_untouched(self, wired):
        transport, _ = wired()
        transport.mark("node:1", ROLE_POISONER)
        assert transport.send(query("node:2")).payload == ("honest-entry",)


class TestVerification:
    def test_forgery_raises_verify_failed(self, wired):
        transport, _ = wired(verify=True)
        transport.mark("node:1", ROLE_POISONER)
        before = perf.counters.sec_verify_failures
        with pytest.raises(DeliveryError) as excinfo:
            transport.send(query())
        assert excinfo.value.reason == DeliveryError.VERIFY_FAILED
        assert excinfo.value.retry_elsewhere
        assert perf.counters.sec_verify_failures == before + 1

    def test_verification_off_delivers_the_forgery(self, wired):
        transport, _ = wired(verify=False)
        transport.mark("node:1", ROLE_POISONER)
        assert transport.send(query()).payload[0].startswith("poison=")

    def test_liar_referrals_caught(self, wired):
        transport, _ = wired(verify=True)
        transport.mark("node:1", ROLE_LIAR)
        with pytest.raises(DeliveryError) as excinfo:
            transport.send(query())
        assert excinfo.value.reason == DeliveryError.VERIFY_FAILED

    def test_file_forgeries_caught(self, wired):
        transport, _ = wired(verify=True)
        transport.mark("node:1", ROLE_SYBIL)
        with pytest.raises(DeliveryError) as excinfo:
            transport.send(fetch(key="desc-3"))
        assert excinfo.value.reason == DeliveryError.VERIFY_FAILED

    def test_sybil_withholding_passes_verification(self, wired):
        """No signature can prove a node *has* an entry it denies:
        verification must deliver the empty answer unmolested.  The
        defence against withholding lives a layer up (replica second
        opinions, repro.core.service)."""
        transport, _ = wired(verify=True)
        transport.mark("node:1", ROLE_SYBIL)
        before = perf.counters.sec_verify_failures
        assert transport.send(query()).payload == ()
        assert perf.counters.sec_verify_failures == before


class TestEclipse:
    def test_lookups_to_victims_drop(self, wired):
        transport, received = wired()
        transport.eclipse("node:1")
        before = perf.counters.sec_eclipse_drops
        with pytest.raises(DeliveryError) as excinfo:
            transport.send(query())
        # Indistinguishable from ordinary loss to the caller.
        assert excinfo.value.reason == DeliveryError.DROPPED
        assert perf.counters.sec_eclipse_drops == before + 1
        assert received == []  # the victim never saw the request

    def test_maintenance_passes_the_eclipse(self, wired):
        transport, received = wired()
        transport.eclipse("node:1")
        transport.send(insert())
        assert len(received) == 1

    def test_eclipse_draws_nothing_from_chaos_rng(self, wired):
        rng = random.Random(9)
        transport, _ = wired(AdversaryPlan(eclipse_victims=1), rng=rng)
        transport.eclipse("node:1")
        state = rng.getstate()
        for _ in range(50):
            with pytest.raises(DeliveryError):
                transport.send(query())
        assert rng.getstate() == state



class TestUnboundClockMisuse:
    def test_eclipsed_send_async_without_clock_raises_before_any_state_changes(
        self, wired
    ):
        rng = random.Random(9)
        transport, received = wired(AdversaryPlan(eclipse_victims=1), rng=rng)
        transport.eclipse("node:1")
        state = rng.getstate()
        before = perf.snapshot()
        with pytest.raises(TransportError) as excinfo:
            transport.send_async(query(), lambda r: None, lambda e: None)
        assert not isinstance(excinfo.value, DeliveryError)
        assert transport.sends == 0
        assert transport.meter.total_bytes == 0
        assert rng.getstate() == state
        assert not any(perf.delta(before, perf.snapshot()).values())
        assert received == []
