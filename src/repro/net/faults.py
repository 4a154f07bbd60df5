"""Deterministic fault injection over the simulated transport.

The paper treats index entries as soft state over a churning peer
population ("nodes can fail", Section IV-C) but evaluates on a perfectly
reliable network.  This module supplies the missing failure model as a
wrapper -- :class:`FaultyTransport` exposes the same endpoint protocol as
:class:`repro.net.transport.SimulatedTransport`, so the whole stack runs
unchanged over it -- driven by a seeded :class:`FaultPlan`:

- per-message *drop* probability (request or response lost in flight;
  per-hop delay is the latency model's alone, see
  :mod:`repro.net.latency`),
- refusal of delivery to endpoints *marked down*
  (:meth:`FaultyTransport.fail_node` / ``recover_node``): they stay
  registered but refuse delivery, which is exactly the window in which
  replica failover and lookup retries must carry the load.  The
  transport owns no schedule -- who goes down when, and what state
  survives a restart, is the experiment's business (the chaos timeline
  of :mod:`repro.sim.experiment`),
- the *adversarial* population of an
  :class:`repro.net.adversary.AdversaryPlan`: lookup traffic to an
  eclipsed endpoint is lost before it leaves, and the answer of a
  compromised endpoint is replaced by its role's forgery (or, with
  ``verify=True``, rejected as ``VERIFY_FAILED``) once it is back.

Every injected fault raises the typed
:class:`repro.net.transport.DeliveryError` (never the hard
:class:`TransportError`) and increments a :mod:`repro.perf` counter, so
chaos runs are measured, not estimated.  All randomness flows through one
``random.Random`` -- either the plan's seed or an instance threaded in by
the simulation -- making every chaos run bit-reproducible.

A zero :class:`FaultPlan` is guaranteed transparent: no random draws, no
counter increments, byte-identical metering to the bare transport; a
zero ``AdversaryPlan`` adds two falsy checks per send and no draw.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.net.adversary import (
    LOOKUP_KINDS,
    NO_ADVERSARY,
    ROLE_LIAR,
    ROLE_POISONER,
    ROLES,
    AdversaryPlan,
    corrupt,
)
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
class FaultPlan:
    """Seeded description of what goes wrong, and how often."""

    drop_probability: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError(
                f"drop_probability must be in [0, 1], got {self.drop_probability}"
            )

    @property
    def is_zero(self) -> bool:
        """True when the plan injects nothing at all."""
        return self.drop_probability == 0.0


#: The transparent plan: wrapping with it is behaviourally identical to
#: the bare transport (asserted by tests).
NO_FAULTS = FaultPlan()


class FaultyTransport:
    """A :class:`SimulatedTransport` wrapper that injects planned faults.

    Implements the same endpoint protocol (register / unregister /
    is_registered / endpoint_names / send / meter), so services and
    engines built for the plain transport run over it unchanged.

    ``adversary`` adds a malicious population (see
    :mod:`repro.net.adversary`).  ``verify`` models content
    authentication being switched on (publisher-signed entries and
    content-addressed descriptors): *fabricated* responses raise
    ``DeliveryError(VERIFY_FAILED)`` instead of being delivered, and
    the index service's failover loop turns those into trust-ledger
    penalties and replica failovers.  Withheld (empty) answers pass --
    no signature scheme catches a node that refuses to speak.
    """

    def __init__(
        self,
        inner: SimulatedTransport,
        plan: FaultPlan = NO_FAULTS,
        rng: Optional[random.Random] = None,
        adversary: AdversaryPlan = NO_ADVERSARY,
        verify: bool = False,
    ) -> None:
        self.inner = inner
        self.plan = plan
        self.adversary = adversary
        self.verify = verify
        self._rng = rng if rng is not None else random.Random(plan.seed)
        self._crashed: set[str] = set()
        #: endpoint name -> adversary role, for every compromised node.
        self.roles: dict[str, str] = {}
        #: endpoint names whose lookup traffic the eclipse set blocks.
        self.eclipsed: set[str] = set()
        self._forge_serials = itertools.count(1)
        self.sends = 0

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

    # -- adversarial population --------------------------------------------

    def mark(self, name: str, role: str) -> None:
        """Put ``name`` under adversary control with the given role."""
        if role not in ROLES:
            raise ValueError(f"unknown adversary role: {role!r}")
        self.roles[name] = role

    def eclipse(self, name: str) -> None:
        """Add ``name`` to the eclipse set (its lookups get dropped)."""
        self.eclipsed.add(name)

    def recruit(self, candidates: list[str]) -> None:
        """Draw the planned poisoners/liars/eclipse victims from
        ``candidates`` with the chaos RNG.

        Selection is disjoint (a node holds one role; an eclipse victim
        is honest -- eclipsing a node the adversary controls would help
        the defenders).  Deterministic: same candidates + same RNG state
        -> same population.
        """
        pool = list(candidates)
        plan = self.adversary
        wanted = plan.poisoners + plan.liars + plan.eclipse_victims
        if wanted > len(pool):
            raise ValueError(
                f"cannot recruit {wanted} adversarial roles from "
                f"{len(pool)} candidates"
            )
        chosen = self._rng.sample(pool, wanted)
        for name in chosen[: plan.poisoners]:
            self.mark(name, ROLE_POISONER)
        for name in chosen[plan.poisoners : plan.poisoners + plan.liars]:
            self.mark(name, ROLE_LIAR)
        self.eclipsed.update(chosen[plan.poisoners + plan.liars :])

    # -- delivery -----------------------------------------------------------

    def send(self, message: Message) -> Optional[Message]:
        """Deliver through the inner transport, injecting planned faults.

        Fault accounting rules (asserted by tests):

        - a dropped *request* still meters its request bytes (the sender
          spent them) but the handler never runs;
        - a dropped *response* meters both sides (the node did the work
          and transmitted) yet the caller sees a :class:`DeliveryError`;
        - a send to a crashed endpoint meters the request bytes and
          raises with reason ``crashed`` so callers fail over.
        """
        return _complete(self._delivery(message, False))

    # -- virtual-time delivery ---------------------------------------------

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
        timeout of the failure detector); a dropped *response* is
        decided when the response leg arrives -- the work and bytes were
        spent, the caller still sees the error.
        """
        self.inner._schedule(self._delivery(message, True), on_result, on_error)

    def _delivery(self, message: Message, timed: bool) -> _Delivery:
        """One exchange under both plans -- the only place faults are
        drawn and answers forged.

        The order is the same for both drivers: eclipse, refusal by a
        marked-down endpoint and request drop (all at send time), then
        the response drop and the destination's forgery once the
        response has arrived -- so a timed fault sequence is a
        deterministic function of the kernel's event order.
        """
        self.sends += 1
        plan = self.plan
        deliver = self.inner._delivery
        if self.eclipsed and self._eclipse_blocks(message):
            counters.sec_eclipse_drops += 1
            # The sender spent the request bytes; the victim never saw
            # them.  To the caller this is an ordinary transient drop --
            # an eclipse is indistinguishable from loss, which is what
            # makes it insidious.
            return (yield from deliver(message, timed, lost=DeliveryError.DROPPED))
        if message.destination in self._crashed:
            counters.fault_crashed_sends += 1
            return (yield from deliver(message, timed, lost=DeliveryError.CRASHED))
        if (
            plan.drop_probability
            and self._rng.random() < plan.drop_probability
        ):
            counters.fault_drops += 1
            return (yield from deliver(message, timed, lost=DeliveryError.DROPPED))
        response = yield from deliver(message, timed)
        if (
            response is not None
            and plan.drop_probability
            and self._rng.random() < plan.drop_probability
        ):
            counters.fault_drops += 1
            raise DeliveryError(DeliveryError.DROPPED, message.destination)
        role = self.roles.get(message.destination) if self.roles else None
        if response is None or role is None or message.kind not in LOOKUP_KINDS:
            return response
        return corrupt(
            message, response, role, self.verify, self._forge_serials,
            self.inner.tracer,
        )

    def _eclipse_blocks(self, message: Message) -> bool:
        return (
            message.destination in self.eclipsed
            and message.kind in LOOKUP_KINDS
        )
