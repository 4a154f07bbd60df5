"""Deterministic fault injection over the simulated transport.

The paper treats index entries as soft state over a churning peer
population ("nodes can fail", Section IV-C) but evaluates on a perfectly
reliable network.  This module supplies the missing failure model as a
wrapper -- :class:`FaultyTransport` exposes the same endpoint protocol as
:class:`repro.net.transport.SimulatedTransport`, so the whole stack runs
unchanged over it -- driven by a seeded :class:`FaultPlan`:

- per-message *drop* probability (request or response lost in flight),
- per-exchange *duplicate* delivery (the destination handles the message
  twice, as a retransmitting network would cause),
- added *latency milliseconds* per delivered message, on the same
  virtual clock the event kernel uses,
- a *crash/rejoin schedule*: endpoints marked crashed stay registered but
  refuse delivery until they recover, which is exactly the window in
  which replica failover and lookup retries must carry the load,
- a *restart schedule*: like a crash, but the victim's process dies
  (SIGKILL semantics -- in-memory state is gone; ``power_loss=True``
  additionally destroys un-synced WAL bytes).  The transport only
  marks the outage window and fires the :attr:`FaultyTransport.on_kill`
  / :attr:`FaultyTransport.on_restart` hooks; what state survives is
  the harness's business (see :mod:`repro.storage.durable`).

Every injected fault raises the typed
:class:`repro.net.transport.DeliveryError` (never the hard
:class:`TransportError`) and increments a :mod:`repro.perf` counter, so
chaos runs are measured, not estimated.  All randomness flows through one
``random.Random`` -- either the plan's seed or an instance threaded in by
the simulation -- making every chaos run bit-reproducible.

A zero :class:`FaultPlan` is guaranteed transparent: no random draws, no
counter increments, byte-identical metering to the bare transport.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.net.message import Message
from repro.net.traffic import TrafficMeter
from repro.net.transport import (
    DeliveryError,
    Endpoint,
    ErrorCallback,
    ResponseCallback,
    SimulatedTransport,
    _complete,
    _Delivery,
)
from repro.perf import counters

if TYPE_CHECKING:
    from repro.net.latency import LatencyModel
    from repro.obs.tracer import Tracer
    from repro.sim.kernel import EventKernel


@dataclass(frozen=True)
class CrashEvent:
    """One scheduled crash: at the ``at_send``-th send, ``victim`` goes
    down for the next ``downtime_sends`` sends, then rejoins.

    ``victim=None`` picks a random crashable endpoint (by default any
    ``node:``-named one) at fire time, using the transport's RNG.
    """

    at_send: int
    downtime_sends: int
    victim: Optional[str] = None

    def __post_init__(self) -> None:
        if self.at_send < 0 or self.downtime_sends < 1:
            raise ValueError("need at_send >= 0 and downtime_sends >= 1")


@dataclass(frozen=True)
class RestartEvent:
    """One scheduled process restart: at the ``at_send``-th send the
    ``victim`` is killed -- SIGKILL semantics, so unlike a
    :class:`CrashEvent` its in-memory state does not survive -- stays
    down for ``downtime_sends`` sends, then restarts and recovers
    whatever it persisted.  ``power_loss=True`` models the plug being
    pulled mid-write: the un-fsynced tail of the victim's write-ahead
    log is destroyed too.

    ``victim=None`` picks a random crashable endpoint at fire time.
    """

    at_send: int
    downtime_sends: int
    victim: Optional[str] = None
    power_loss: bool = False

    def __post_init__(self) -> None:
        if self.at_send < 0 or self.downtime_sends < 1:
            raise ValueError("need at_send >= 0 and downtime_sends >= 1")


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of what goes wrong, and how often.

    Added latency is expressed in virtual-clock milliseconds
    (``max_latency_ms``).
    """

    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    max_latency_ms: float = 0.0
    crash_schedule: tuple[CrashEvent, ...] = ()
    restart_schedule: tuple[RestartEvent, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("drop_probability", "duplicate_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.max_latency_ms < 0:
            raise ValueError("max_latency_ms cannot be negative")

    @property
    def is_zero(self) -> bool:
        """True when the plan injects nothing at all."""
        return (
            self.drop_probability == 0.0
            and self.duplicate_probability == 0.0
            and self.max_latency_ms == 0.0
            and not self.crash_schedule
            and not self.restart_schedule
        )


#: The transparent plan: wrapping with it is behaviourally identical to
#: the bare transport (asserted by tests).
NO_FAULTS = FaultPlan()


def _discard(outcome: object) -> None:
    """Continuation of a delivery whose outcome nobody awaits."""


def _default_crashable(names: list[str]) -> list[str]:
    """Endpoints eligible for random crash selection: index nodes only."""
    return [name for name in names if name.startswith("node:")]


class FaultyTransport:
    """A :class:`SimulatedTransport` wrapper that injects planned faults.

    Implements the same endpoint protocol (register / unregister /
    is_registered / endpoint_names / send / meter), so services and
    engines built for the plain transport run over it unchanged.
    """

    def __init__(
        self,
        inner: SimulatedTransport,
        plan: FaultPlan = NO_FAULTS,
        rng: Optional[random.Random] = None,
        crashable: Callable[[list[str]], list[str]] = _default_crashable,
    ) -> None:
        self.inner = inner
        self.plan = plan
        self._rng = rng if rng is not None else random.Random(plan.seed)
        self._crashable = crashable
        self._crashed: set[str] = set()
        self.sends = 0
        #: Total injected latency, in virtual-clock milliseconds.
        self.latency_ms = 0.0
        self._pending_crashes = sorted(
            plan.crash_schedule, key=lambda event: event.at_send
        )
        self._pending_recoveries: list[tuple[int, str]] = []
        self._pending_restarts = sorted(
            plan.restart_schedule, key=lambda event: event.at_send
        )
        self._pending_restart_recoveries: list[tuple[int, str, bool]] = []
        #: Invoked as ``on_kill(name, power_loss)`` the moment a
        #: scheduled restart takes ``name`` down -- the harness's chance
        #: to drop (and, under power loss, tear) the victim's journal.
        self.on_kill: Optional[Callable[[str, bool], None]] = None
        #: Invoked as ``on_restart(name, power_loss)`` when the victim's
        #: downtime elapses, *after* delivery is re-enabled -- the
        #: harness's chance to replay persisted state and re-replicate.
        self.on_restart: Optional[Callable[[str, bool], None]] = None

    # -- endpoint protocol (delegation) ------------------------------------

    @property
    def meter(self) -> TrafficMeter:
        return self.inner.meter

    @property
    def tracer(self) -> Optional["Tracer"]:
        return self.inner.tracer

    def bind_tracer(self, tracer: Optional["Tracer"]) -> None:
        """Attach the lookup tracer on the wrapped transport."""
        self.inner.bind_tracer(tracer)

    def register(self, name: str, endpoint: Endpoint) -> None:
        """Attach an endpoint on the wrapped transport."""
        self.inner.register(name, endpoint)

    def unregister(self, name: str) -> None:
        """Detach an endpoint; a crashed one departs un-crashed."""
        self.inner.unregister(name)
        self._crashed.discard(name)

    def is_registered(self, name: str) -> bool:
        """True when the wrapped transport knows this endpoint."""
        return self.inner.is_registered(name)

    @property
    def endpoint_names(self) -> list[str]:
        return self.inner.endpoint_names

    # -- crash state --------------------------------------------------------

    def fail_node(self, name: str) -> None:
        """Mark an endpoint crashed: registered, but refusing delivery."""
        self._crashed.add(name)

    def recover_node(self, name: str) -> None:
        """Bring a crashed endpoint back up."""
        self._crashed.discard(name)

    def is_crashed(self, name: str) -> bool:
        """True while an endpoint is in its crash window."""
        return name in self._crashed

    @property
    def crashed_endpoints(self) -> set[str]:
        return set(self._crashed)

    # -- delivery -----------------------------------------------------------

    def send(self, message: Message) -> Optional[Message]:
        """Deliver through the inner transport, injecting planned faults.

        Fault accounting rules (asserted by tests):

        - a dropped *request* still meters its request bytes (the sender
          spent them) but the handler never runs;
        - a dropped *response* meters both sides (the node did the work
          and transmitted) yet the caller sees a :class:`DeliveryError`;
        - a duplicated message runs the handler twice and meters both
          deliveries;
        - a send to a crashed endpoint meters the request bytes and
          raises with reason ``crashed`` so callers fail over.
        """
        return _complete(self._delivery(message, False))

    # -- virtual-time delivery ---------------------------------------------

    @property
    def kernel(self) -> Optional["EventKernel"]:
        return self.inner.kernel

    def bind_clock(
        self, kernel: "EventKernel", latency: "LatencyModel"
    ) -> None:
        """Attach the event kernel and latency model (delegated)."""
        self.inner.bind_clock(kernel, latency)

    def send_async(
        self,
        message: Message,
        on_result: ResponseCallback,
        on_error: ErrorCallback,
    ) -> None:
        """The exchange of :meth:`send` on the virtual clock.

        Time is made explicit: a refused or dropped request reaches
        ``on_error`` after the request's one-way delay (the idealized
        timeout of the failure detector); injected latency lengthens the
        request leg; a duplicate is a second scheduled delivery whose
        response is discarded; a dropped *response* is decided when the
        response leg arrives -- the work and bytes were spent, the
        caller still sees the error.
        """
        self.inner._schedule(self._delivery(message, True), on_result, on_error)

    def _delivery(self, message: Message, timed: bool) -> _Delivery:
        """One exchange under the plan -- the only place faults are drawn.

        The draw order is the same for both drivers: request drop, added
        latency, duplicate (all at send time), then the response drop
        once the response has arrived -- so a timed fault sequence is a
        deterministic function of the kernel's event order.
        """
        self._advance_schedule()
        self.sends += 1
        plan = self.plan
        deliver = self.inner._delivery
        if message.destination in self._crashed:
            counters.fault_crashed_sends += 1
            return (yield from deliver(message, timed, lost=DeliveryError.CRASHED))
        if (
            plan.drop_probability
            and self._rng.random() < plan.drop_probability
        ):
            counters.fault_drops += 1
            return (yield from deliver(message, timed, lost=DeliveryError.DROPPED))
        extra_ms = 0.0
        if plan.max_latency_ms:
            extra_ms = self._rng.uniform(0.0, plan.max_latency_ms)
            self.latency_ms += extra_ms
            counters.fault_latency_ms += extra_ms
        if (
            plan.duplicate_probability
            and self._rng.random() < plan.duplicate_probability
        ):
            counters.fault_duplicates += 1
            # Nobody awaits the copy, so it is on no lookup's critical
            # path: its legs are recorded unattributed and the
            # latency-sum trace invariant holds.
            tracer = self.inner.tracer
            copy = deliver(message, timed, extra_ms)
            with nullcontext() if tracer is None else tracer.activated(None):
                if timed:
                    self.inner._schedule(copy, _discard, _discard)
                else:
                    _complete(copy)
        response = yield from deliver(message, timed, extra_ms)
        if (
            response is not None
            and plan.drop_probability
            and self._rng.random() < plan.drop_probability
        ):
            counters.fault_drops += 1
            raise DeliveryError(DeliveryError.DROPPED, message.destination)
        return response

    def _advance_schedule(self) -> None:
        """Fire crash/restart/recovery events due at the current send."""
        while self._pending_recoveries and (
            self._pending_recoveries[0][0] <= self.sends
        ):
            _, name = self._pending_recoveries.pop(0)
            self.recover_node(name)
        while self._pending_restart_recoveries and (
            self._pending_restart_recoveries[0][0] <= self.sends
        ):
            _, name, power_loss = self._pending_restart_recoveries.pop(0)
            self.recover_node(name)
            if self.on_restart is not None:
                self.on_restart(name, power_loss)
        while self._pending_crashes and (
            self._pending_crashes[0].at_send <= self.sends
        ):
            event = self._pending_crashes.pop(0)
            victim = self._pick_victim(event.victim)
            if victim is None:
                continue
            self.fail_node(victim)
            recover_at = self.sends + event.downtime_sends
            self._pending_recoveries.append((recover_at, victim))
            self._pending_recoveries.sort()
        while self._pending_restarts and (
            self._pending_restarts[0].at_send <= self.sends
        ):
            event = self._pending_restarts.pop(0)
            victim = self._pick_victim(event.victim)
            if victim is None:
                continue
            self.fail_node(victim)
            counters.fault_restarts += 1
            if event.power_loss:
                counters.fault_power_losses += 1
            if self.on_kill is not None:
                self.on_kill(victim, event.power_loss)
            recover_at = self.sends + event.downtime_sends
            self._pending_restart_recoveries.append(
                (recover_at, victim, event.power_loss)
            )
            self._pending_restart_recoveries.sort()

    def _pick_victim(self, victim: Optional[str]) -> Optional[str]:
        """Resolve a scheduled event's victim (random when unset)."""
        if victim is not None:
            return victim
        candidates = [
            name
            for name in self._crashable(self.inner.endpoint_names)
            if name not in self._crashed
        ]
        if not candidates:
            return None
        return candidates[self._rng.randrange(len(candidates))]


#: Adversarial (Byzantine) extensions live in :mod:`repro.net.adversary`
#: and are re-exported here lazily (PEP 562) -- a plain ``from
#: repro.net.faults import AdversaryPlan`` works without creating an
#: import cycle (the adversary module subclasses FaultyTransport).
_ADVERSARY_EXPORTS = ("AdversaryPlan", "AdversarialTransport", "NO_ADVERSARY")


def __getattr__(name: str):
    if name in _ADVERSARY_EXPORTS:
        from repro.net import adversary

        return getattr(adversary, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
