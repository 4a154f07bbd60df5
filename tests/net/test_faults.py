"""Unit tests for deterministic fault injection (repro.net.faults)."""

import random

import pytest

from repro import perf
from repro.net.faults import NO_FAULTS, FaultPlan, FaultyTransport
from repro.net.message import Message, MessageKind
from repro.net.transport import (
    DeliveryError,
    SimulatedTransport,
    TransportError,
)


def echo_endpoint(received):
    def handle(message):
        received.append(message)
        return message.reply(MessageKind.QUERY_RESPONSE, ("ok",))

    return handle


def request(destination="node:1"):
    return Message(MessageKind.QUERY_REQUEST, "user:t", destination, ("q",))


@pytest.fixture
def wired():
    """(faulty transport factory, received list) over one echo endpoint."""

    def build(plan, rng=None):
        inner = SimulatedTransport()
        received = []
        inner.register("node:1", echo_endpoint(received))
        return FaultyTransport(inner, plan, rng=rng), received

    return build


class TestFaultPlan:
    def test_zero_plan_is_zero(self):
        assert NO_FAULTS.is_zero
        assert FaultPlan(drop_probability=0.1).is_zero is False

    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_probability=1.5)
        with pytest.raises(ValueError):
            FaultPlan(drop_probability=-0.1)


class TestZeroPlanTransparency:
    def test_same_metering_as_bare_transport(self, wired):
        faulty, received = wired(NO_FAULTS)
        bare = SimulatedTransport()
        bare_received = []
        bare.register("node:1", echo_endpoint(bare_received))
        for _ in range(20):
            faulty.send(request())
            bare.send(request())
        assert faulty.meter.normal_bytes == bare.meter.normal_bytes
        assert len(received) == len(bare_received) == 20

    def test_no_rng_draws(self, wired):
        rng = random.Random(5)
        faulty, _ = wired(NO_FAULTS, rng=rng)
        state = rng.getstate()
        for _ in range(50):
            faulty.send(request())
        assert rng.getstate() == state

    def test_no_fault_counters(self, wired):
        faulty, _ = wired(NO_FAULTS)
        before = perf.snapshot()
        for _ in range(20):
            faulty.send(request())
        delta = perf.delta(before, perf.snapshot())
        assert delta["fault_drops"] == 0
        assert delta["fault_crashed_sends"] == 0


class TestDrops:
    def test_drop_raises_delivery_error(self, wired):
        faulty, received = wired(FaultPlan(drop_probability=1.0, seed=3))
        with pytest.raises(DeliveryError) as excinfo:
            faulty.send(request())
        assert excinfo.value.reason == DeliveryError.DROPPED
        assert not excinfo.value.retry_elsewhere
        assert received == []  # the handler never ran

    def test_dropped_request_still_meters_request_bytes(self, wired):
        faulty, _ = wired(FaultPlan(drop_probability=1.0, seed=3))
        message = request()
        with pytest.raises(DeliveryError):
            faulty.send(message)
        assert faulty.meter.normal_bytes == message.size_bytes

    def test_drop_rate_roughly_respected(self, wired):
        faulty, received = wired(FaultPlan(drop_probability=0.3, seed=9))
        outcomes = []
        for _ in range(600):
            try:
                faulty.send(request())
                outcomes.append(True)
            except DeliveryError:
                outcomes.append(False)
        drop_share = outcomes.count(False) / len(outcomes)
        # Request and response each face the drop draw, so the
        # per-exchange failure rate is 1 - 0.7 * 0.7 = 0.51.
        assert 0.4 < drop_share < 0.62

    def test_deterministic_in_seed(self, wired):
        def run():
            faulty, _ = wired(FaultPlan(drop_probability=0.25, seed=21))
            outcomes = []
            for _ in range(200):
                try:
                    faulty.send(request())
                    outcomes.append("ok")
                except DeliveryError:
                    outcomes.append("drop")
            return outcomes

        assert run() == run()


class TestCrashes:
    def test_crashed_endpoint_refuses_delivery(self, wired):
        faulty, received = wired(NO_FAULTS)
        faulty.fail_node("node:1")
        message = request()
        with pytest.raises(DeliveryError) as excinfo:
            faulty.send(message)
        assert excinfo.value.reason == DeliveryError.CRASHED
        assert excinfo.value.retry_elsewhere
        assert received == []
        assert faulty.meter.normal_bytes == message.size_bytes

    def test_recover_restores_delivery(self, wired):
        faulty, received = wired(NO_FAULTS)
        faulty.fail_node("node:1")
        faulty.recover_node("node:1")
        assert faulty.send(request()) is not None
        assert len(received) == 1

    def test_unregister_clears_crash_state(self, wired):
        faulty, _ = wired(NO_FAULTS)
        faulty.fail_node("node:1")
        faulty.unregister("node:1")
        assert not faulty.is_crashed("node:1")


class TestAsyncFaults:
    """Kernel-scheduled sends through the fault layer."""

    def clocked(self, wired, plan, rng=None):
        from repro.net.latency import ConstantLatency
        from repro.sim.kernel import EventKernel

        faulty, received = wired(plan, rng=rng)
        kernel = EventKernel()
        faulty.bind_clock(kernel, ConstantLatency(10.0))
        return faulty, received, kernel

    def test_zero_plan_delivers_on_schedule(self, wired):
        faulty, received, kernel = self.clocked(wired, NO_FAULTS)
        arrivals = []
        faulty.send_async(
            request(),
            lambda response: arrivals.append(kernel.now),
            lambda error: arrivals.append(error),
        )
        kernel.run()
        assert arrivals == [20.0]
        assert len(received) == 1

    def test_crashed_node_fails_after_request_leg(self, wired):
        faulty, received, kernel = self.clocked(wired, NO_FAULTS)
        faulty.fail_node("node:1")
        outcomes = []
        faulty.send_async(
            request(),
            lambda response: outcomes.append("delivered"),
            lambda error: outcomes.append((kernel.now, error.reason)),
        )
        kernel.run()
        # The failure surfaces only after the request leg has elapsed
        # (an idealized failure-detector timeout), never instantly.
        assert outcomes == [(10.0, DeliveryError.CRASHED)]
        assert received == []

    def test_dropped_request_fails_async(self, wired):
        faulty, received, kernel = self.clocked(
            wired, FaultPlan(drop_probability=1.0, seed=3)
        )
        outcomes = []
        faulty.send_async(
            request(),
            lambda response: outcomes.append("delivered"),
            lambda error: outcomes.append(error.reason),
        )
        kernel.run()
        assert outcomes == [DeliveryError.DROPPED]
        assert received == []

    def test_async_faults_deterministic_in_seed(self, wired):
        def drive():
            faulty, _, kernel = self.clocked(
                wired, FaultPlan(drop_probability=0.3, seed=11),
                rng=random.Random(11),
            )
            outcomes = []
            for _ in range(100):
                faulty.send_async(
                    request(),
                    lambda response: outcomes.append("ok"),
                    lambda error: outcomes.append("drop"),
                )
            kernel.run()
            return outcomes

        assert drive() == drive()


class TestUnboundClockMisuse:
    def test_send_async_without_clock_raises_before_any_state_changes(
        self, wired
    ):
        # A downed destination and a plan that would drop this very
        # send -- were it ever started.
        plan = FaultPlan(drop_probability=1.0)
        rng = random.Random(9)
        faulty, received = wired(plan, rng=rng)
        faulty.fail_node("node:1")
        state = rng.getstate()
        before = perf.snapshot()
        with pytest.raises(TransportError) as excinfo:
            faulty.send_async(request(), lambda r: None, lambda e: None)
        assert not isinstance(excinfo.value, DeliveryError)
        assert faulty.sends == 0
        assert faulty.crashed_endpoints == {"node:1"}
        assert faulty.meter.total_bytes == 0
        assert rng.getstate() == state
        assert not any(perf.delta(before, perf.snapshot()).values())
        assert received == []


class TestEndpointProtocol:
    def test_delegation(self, wired):
        faulty, _ = wired(NO_FAULTS)
        assert faulty.is_registered("node:1")
        assert faulty.endpoint_names == ["node:1"]
        faulty.register("node:2", lambda m: None)
        assert faulty.inner.is_registered("node:2")
        faulty.unregister("node:2")
        assert not faulty.is_registered("node:2")

    def test_never_registered_still_loud(self, wired):
        faulty, _ = wired(NO_FAULTS)
        with pytest.raises(TransportError) as excinfo:
            faulty.send(request("node:never"))
        assert not isinstance(excinfo.value, DeliveryError)
