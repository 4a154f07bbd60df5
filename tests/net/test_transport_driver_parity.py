"""One delivery primitive, two drivers: ``send`` and ``send_async`` agree.

Every simulated transport writes its exchange once (``_delivery``) and
runs it inline (``send``) or over the event kernel (``send_async``).
Each scenario below is therefore delivered both ways -- the scheduled
one on a zero-latency clock -- and must come out identical in
everything but time: the response or the error reason, the handler
calls, the metered bytes, the ``repro.perf`` counter deltas, the send
count and the chaos RNG's state afterwards.
"""

import random

import pytest

from repro import perf
from repro.net.adversary import (
    ROLE_LIAR,
    ROLE_POISONER,
    ROLE_SYBIL,
)
from repro.net.faults import NO_FAULTS, FaultPlan, FaultyTransport
from repro.net.latency import ZeroLatency
from repro.net.message import Message, MessageKind, TrafficCategory
from repro.net.transport import DeliveryError, SimulatedTransport
from repro.sim.kernel import EventKernel

QUERY = Message(MessageKind.QUERY_REQUEST, "user:t", "node:1", ("q",))
FETCH = Message(MessageKind.FILE_REQUEST, "user:t", "node:1", ("k1",))
SHORTCUT = Message(MessageKind.CACHE_INSERT, "user:t", "node:1", ("q", "k1"))


def _first_draws(seed, count=2):
    rng = random.Random(seed)
    return [rng.random() for _ in range(count)]


#: A seed whose first draw passes a 50% request drop and whose second
#: fails the response drop (checked below, so a changed generator is a
#: loud failure rather than a vacuous scenario).
RESPONSE_DROP_SEED = next(
    seed
    for seed in range(100)
    if _first_draws(seed)[0] >= 0.5 > _first_draws(seed)[1]
)


def build(plan=NO_FAULTS, seed=3, verify=False):
    """(transport, inner, received, rng) over one answering endpoint."""
    inner = SimulatedTransport()
    received = []

    def handle(message):
        received.append(message)
        if message.kind is MessageKind.CACHE_INSERT:
            return None
        if message.kind is MessageKind.FILE_REQUEST:
            return message.reply(MessageKind.FILE_RESPONSE, ("honest-file",))
        return message.reply(MessageKind.QUERY_RESPONSE, ("honest-entry",))

    inner.register("node:1", handle)
    inner.register("user:t", lambda message: None)
    rng = random.Random(seed)
    transport = FaultyTransport(inner, plan, rng=rng, verify=verify)
    return transport, inner, received, rng


def departed(transport):
    transport.unregister("node:1")


def crashed(transport):
    transport.fail_node("node:1")


def eclipsed(transport):
    transport.eclipse("node:1")


def compromised(role):
    def mark(transport):
        transport.mark("node:1", role)

    return mark


#: name -> (message, build keywords, arrangement, expected outcome); the
#: outcome is a response payload, ``None`` (no response) or an error reason.
SCENARIOS = {
    "clean": (QUERY, {}, None, ("honest-entry",)),
    "no-response": (SHORTCUT, {}, None, None),
    "departed": (QUERY, {}, departed, DeliveryError.UNREGISTERED),
    "crashed": (QUERY, {}, crashed, DeliveryError.CRASHED),
    "dropped-request": (
        QUERY, {"plan": FaultPlan(drop_probability=1.0)}, None,
        DeliveryError.DROPPED,
    ),
    "dropped-response": (
        QUERY,
        {"plan": FaultPlan(drop_probability=0.5), "seed": RESPONSE_DROP_SEED},
        None,
        DeliveryError.DROPPED,
    ),
    "eclipse": (QUERY, {}, eclipsed, DeliveryError.DROPPED),
    "poisoner": (
        QUERY, {}, compromised(ROLE_POISONER),
        ("poison=1", "poison=1000001"),
    ),
    "poisoner-verified": (
        QUERY, {"verify": True}, compromised(ROLE_POISONER),
        DeliveryError.VERIFY_FAILED,
    ),
    "liar": (
        QUERY, {}, compromised(ROLE_LIAR), ("~forged:1",)
    ),
    "liar-verified": (
        QUERY, {"verify": True}, compromised(ROLE_LIAR),
        DeliveryError.VERIFY_FAILED,
    ),
    "sybil": (QUERY, {}, compromised(ROLE_SYBIL), ()),
    "sybil-verified": (QUERY, {"verify": True}, compromised(ROLE_SYBIL), ()),
    "forged-file": (
        FETCH, {}, compromised(ROLE_SYBIL), ("k1",)
    ),
    "forged-file-verified": (
        FETCH, {"verify": True}, compromised(ROLE_SYBIL),
        DeliveryError.VERIFY_FAILED,
    ),
}


def observe(name, scheduled):
    """Run one scenario through one driver; return everything but time."""
    message, options, arrange, _ = SCENARIOS[name]
    transport, inner, received, rng = build(**options)
    if arrange is not None:
        arrange(transport)
    before = perf.snapshot()
    if scheduled:
        kernel = EventKernel()
        transport.bind_clock(kernel, ZeroLatency())
        outcomes = []
        transport.send_async(
            message,
            lambda response: outcomes.append(
                None if response is None else response.payload
            ),
            lambda error: outcomes.append(error.reason),
        )
        assert outcomes == [], "continuations never run inside send_async"
        kernel.run()
        (outcome,) = outcomes
    else:
        try:
            response = transport.send(message)
        except DeliveryError as error:
            outcome = error.reason
        else:
            outcome = None if response is None else response.payload
    meter = inner.meter
    return {
        "outcome": outcome,
        "handled": [(m.kind, m.payload) for m in received],
        "bytes": {c: meter.bytes_for(c) for c in TrafficCategory},
        "messages": {c: meter.messages_for(c) for c in TrafficCategory},
        "counters": perf.delta(before, perf.snapshot()),
        "sends": transport.sends,
        "rng": rng.getstate(),
    }


def test_response_drop_seed_is_not_vacuous():
    first, second = _first_draws(RESPONSE_DROP_SEED)
    assert first >= 0.5 > second


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_send_and_send_async_agree(name):
    inline = observe(name, scheduled=False)
    scheduled = observe(name, scheduled=True)
    assert inline["outcome"] == SCENARIOS[name][3]
    assert scheduled == inline
