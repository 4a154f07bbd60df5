"""Adversarial (Byzantine) fault injection over the simulated transport.

:mod:`repro.net.faults` models *benign* failure: drops, latency,
crashes.  This module adds the malicious kinds a real P2P deployment
faces, as a :class:`FaultyTransport` subclass so adversarial runs keep
every benign fault capability and the full endpoint protocol:

- **index poisoners** answer queries with fabricated entries (and serve
  forged files on fetch), replacing whatever the honest handler said;
- **lying routers** forge shortcut referrals, pointing lookups at
  descriptors that do not exist;
- **Sybil nodes** are adversary-controlled joiners: the harness floods
  them into the overlay (they become responsible for key ranges via the
  normal join/repair path) and marks them here, after which they
  withhold every answer;
- **eclipse sets** selectively drop lookup traffic (query and fetch
  requests only -- maintenance passes) addressed to victim nodes,
  cutting their replica keys off from users.

Mechanics: compromised behavior is applied to the *response* after the
honest handler ran, which models a node that participates in the
protocol but lies about its state.  Transport (frame) signatures are
deliberately **not** the modelled defence against that node: a lying
endpoint signs its forged response with its own perfectly valid key
and passes every frame check.  What ``verify=True`` models is
*content* authentication -- the end-to-end layer of
:mod:`repro.sec.entries`:

- fabricated index entries and forged referrals fail **publisher
  attestation** (each stored entry carries its publisher's ed25519
  signature over ``(index key, entry)``; a responder holds no trusted
  publisher key, so its fabrications cannot verify), and
- forged file results fail the **content-addressed descriptor** check
  (the descriptor is the hash the lookup asked for; forged content
  does not hash to it),

so those forgeries surface as a typed ``DeliveryError(VERIFY_FAILED)``
-- detected with certainty; the per-entry cost of real signature
checks is paid in the ``repro.sec`` unit tests, not re-simulated here
-- which triggers the service's replica failover and (when a trust
ledger is attached) deprioritizes the forger for future exchanges.
**Withholding is not caught**: a Sybil's empty answer is perfectly
valid signed content and is delivered even with verification on -- the
defence against it is the service's cross-replica second opinion
(contradiction tracking), not any signature.

``DeliveryError(VERIFY_FAILED)`` flows through the index service's
failover loop, which owns all trust-ledger updates (one owner, no
double penalties between transport and service).

Determinism: all choices flow through the one chaos RNG the harness
threads in (recruitment, eclipse drop draws), so adversarial cells are
bit-reproducible under a fixed seed.  A zero :class:`AdversaryPlan`
adds no draws and no per-send work beyond two falsy checks, keeping
benign runs bit-identical to :class:`FaultyTransport`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.net.faults import NO_FAULTS, FaultPlan, FaultyTransport
from repro.net.message import Message, MessageKind
from repro.net.transport import DeliveryError, SimulatedTransport, _Delivery
from repro.perf import counters

#: Shortcut marker on query-response entries (mirrors
#: ``repro.core.service.SHORTCUT_MARK``; hardcoded to keep the net layer
#: from importing core, and pinned by a test).
_SHORTCUT_MARK = "~"

#: Adversary role names (values of :attr:`AdversarialTransport.roles`).
ROLE_POISONER = "poisoner"
ROLE_LIAR = "liar"
ROLE_SYBIL = "sybil"
_ROLES = (ROLE_POISONER, ROLE_LIAR, ROLE_SYBIL)

#: Message kinds an adversary corrupts / an eclipse set blocks: the
#: lookup path.  Maintenance (inserts, repair) and cache traffic pass,
#: so the overlay stays consistent and the attack is *selective*.
_LOOKUP_KINDS = (MessageKind.QUERY_REQUEST, MessageKind.FILE_REQUEST)


@dataclass(frozen=True)
class AdversaryPlan:
    """Seeded description of who misbehaves, and how.

    Counts are drawn from the node population by
    :meth:`AdversarialTransport.recruit`; ``sybil_joins`` is consumed by
    the simulation harness (Sybils must *join*, which only the harness
    can orchestrate).  ``eclipse_drop`` is the per-message drop
    probability for lookup traffic to an eclipsed victim; the default
    1.0 is a total eclipse and costs no RNG draws.
    """

    poisoners: int = 0
    liars: int = 0
    sybil_joins: int = 0
    eclipse_victims: int = 0
    eclipse_drop: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("poisoners", "liars", "sybil_joins", "eclipse_victims"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")
        if not 0.0 <= self.eclipse_drop <= 1.0:
            raise ValueError(
                f"eclipse_drop must be in [0, 1], got {self.eclipse_drop}"
            )

    @property
    def is_zero(self) -> bool:
        """True when nobody misbehaves."""
        return (
            self.poisoners == 0
            and self.liars == 0
            and self.sybil_joins == 0
            and self.eclipse_victims == 0
        )


#: The honest plan: wrapping with it is behaviourally identical to
#: :class:`FaultyTransport` (asserted by tests).
NO_ADVERSARY = AdversaryPlan()


class AdversarialTransport(FaultyTransport):
    """A :class:`FaultyTransport` whose population includes malicious nodes.

    ``verify`` models content authentication being switched on
    (publisher-signed entries and content-addressed descriptors, see
    the module docstring): *fabricated* responses raise
    ``DeliveryError(VERIFY_FAILED)`` instead of being delivered, and
    the index service's failover loop turns those into trust-ledger
    penalties and replica failovers.  Withheld (empty) answers pass --
    no signature scheme catches a node that refuses to speak.
    """

    def __init__(
        self,
        inner: SimulatedTransport,
        plan: FaultPlan = NO_FAULTS,
        adversary: AdversaryPlan = NO_ADVERSARY,
        rng: Optional[random.Random] = None,
        verify: bool = False,
    ) -> None:
        super().__init__(inner, plan, rng)
        self.adversary = adversary
        self.verify = verify
        #: endpoint name -> adversary role, for every compromised node.
        self.roles: dict[str, str] = {}
        #: endpoint names whose lookup traffic the eclipse set blocks.
        self.eclipsed: set[str] = set()
        self._forge_serial = 0

    # -- population control -------------------------------------------------

    def mark(self, name: str, role: str) -> None:
        """Put ``name`` under adversary control with the given role."""
        if role not in _ROLES:
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
        cursor = 0
        for _ in range(plan.poisoners):
            self.mark(chosen[cursor], ROLE_POISONER)
            cursor += 1
        for _ in range(plan.liars):
            self.mark(chosen[cursor], ROLE_LIAR)
            cursor += 1
        for _ in range(plan.eclipse_victims):
            self.eclipse(chosen[cursor])
            cursor += 1

    # -- delivery -----------------------------------------------------------

    def _delivery(self, message: Message, timed: bool) -> _Delivery:
        """The benign exchange with the adversary's two interventions:
        eclipsed lookup traffic is lost before it leaves, and a
        compromised destination's answer is replaced once it is back."""
        if self.eclipsed and self._eclipse_blocks(message):
            self.sends += 1
            counters.sec_eclipse_drops += 1
            # The sender spent the request bytes; the victim never saw
            # them.  To the caller this is an ordinary transient drop --
            # an eclipse is indistinguishable from loss, which is what
            # makes it insidious.
            return (
                yield from self.inner._delivery(
                    message, timed, lost=DeliveryError.DROPPED
                )
            )
        response = yield from super()._delivery(message, timed)
        role = self.roles.get(message.destination) if self.roles else None
        if (
            response is None
            or role is None
            or message.kind not in _LOOKUP_KINDS
        ):
            return response
        return self._corrupt(message, response, role)

    # -- adversarial behavior ------------------------------------------------

    def _eclipse_blocks(self, message: Message) -> bool:
        if message.destination not in self.eclipsed:
            return False
        if message.kind not in _LOOKUP_KINDS:
            return False
        drop = self.adversary.eclipse_drop
        return drop >= 1.0 or self._rng.random() < drop

    def _corrupt(
        self, message: Message, response: Message, role: str
    ) -> Message:
        """Replace an honest response with the role's forgery -- or, with
        content verification on, reject the *fabrications* among them.

        Withholding (the Sybil behavior) is never rejected here: an
        empty answer is valid signed content whoever sends it, so it is
        delivered in both modes and left to the service's cross-replica
        second opinion.
        """
        if role == ROLE_SYBIL and message.kind is not MessageKind.FILE_REQUEST:
            # Sybils withhold: they hold real key ranges (the join/repair
            # path replicated entries onto them) but answer with nothing.
            # No signature catches this -- the forged answer contains no
            # forged content -- so it passes even with verify on.
            counters.sec_poisoned_answers += 1
            return self._forged_response(response, ())
        if self.verify:
            # The forgery would carry fabricated content: index entries
            # without a valid publisher attestation, or file bytes that
            # do not hash to the content-addressed descriptor.  Either
            # way the client detects it with certainty.
            counters.sec_verify_failures += 1
            tracer = self.inner.tracer
            if tracer is not None:
                tracer.sec_verify_fail(
                    destination=message.destination, role=role
                )
            raise DeliveryError(
                DeliveryError.VERIFY_FAILED, message.destination
            )
        self._forge_serial += 1
        serial = self._forge_serial
        if message.kind is MessageKind.FILE_REQUEST:
            # Serve a forged file: claim the descriptor is stored
            # regardless of truth.  The caller sees found=True and walks
            # away with attacker-controlled bytes.
            key = str(message.payload[0]) if message.payload else "forged"
            counters.sec_poisoned_results += 1
            tracer = self.inner.tracer
            if tracer is not None:
                tracer.poisoned_result(
                    destination=message.destination, key=key
                )
            payload: tuple[str, ...] = (key,)
        elif role == ROLE_LIAR:
            # A forged referral hop: a shortcut to a descriptor that was
            # never published.  The engine ignores referrals that do not
            # match its target, so the exchange is wasted -- and the
            # honest entries the node should have returned are gone.
            counters.sec_forged_referrals += 1
            payload = (f"{_SHORTCUT_MARK}forged:{serial}",)
        else:  # poisoner
            # Fabricated index entries.  They parse as garbage (or cover
            # nothing), so the lookup burns its budget chasing them
            # while the honest entries are suppressed.
            counters.sec_poisoned_answers += 1
            payload = (f"poison={serial}", f"poison={serial + 1000000}")
        return self._forged_response(response, payload)

    @staticmethod
    def _forged_response(
        response: Message, payload: tuple[str, ...]
    ) -> Message:
        return Message(
            kind=response.kind,
            source=response.source,
            destination=response.destination,
            payload=payload,
            route_hops=response.route_hops,
            category=response.category,
        )
