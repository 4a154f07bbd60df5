"""The adversarial (Byzantine) population: who misbehaves, and how.

:mod:`repro.net.faults` models *benign* failure -- drops and
crashes -- and owns the one fault-injecting transport.  This module
describes the malicious kinds a real P2P deployment faces, which that
same :class:`repro.net.faults.FaultyTransport` applies when handed an
:class:`AdversaryPlan` (it imports this module, never the reverse):

- **index poisoners** answer queries with fabricated entries (and serve
  forged files on fetch), replacing whatever the honest handler said;
- **lying routers** forge shortcut referrals, pointing lookups at
  descriptors that do not exist;
- **Sybil nodes** are adversary-controlled joiners: the harness floods
  them into the overlay (they become responsible for key ranges via the
  normal join/repair path) and marks them on the transport, after which
  they withhold every answer;
- **eclipse sets** drop all lookup traffic (query and fetch requests
  only -- maintenance passes) addressed to victim nodes, cutting their
  replica keys off from users.

Mechanics: compromised behavior is applied to the *response* after the
honest handler ran (:func:`corrupt`), which models a node that
participates in the protocol but lies about its state.  Transport
(frame) signatures are deliberately **not** the modelled defence
against that node: a lying endpoint signs its forged response with its
own perfectly valid key and passes every frame check.  What
``verify=True`` models is *content* authentication -- the end-to-end
layer of :mod:`repro.sec.entries`:

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

Determinism: recruitment draws from the transport's one chaos RNG,
and nothing else here draws at all, so adversarial cells are
bit-reproducible under a fixed seed.  A zero :class:`AdversaryPlan`
adds no draws and no per-send work beyond two falsy checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

from repro.net.message import Message, MessageKind
from repro.net.transport import DeliveryError
from repro.perf import counters

if TYPE_CHECKING:
    from repro.obs.tracer import Tracer

#: Shortcut marker on query-response entries (mirrors
#: ``repro.core.service.SHORTCUT_MARK``; hardcoded to keep the net layer
#: from importing core, and pinned by a test).
_SHORTCUT_MARK = "~"

#: Adversary role names (values of ``FaultyTransport.roles``).
ROLE_POISONER = "poisoner"
ROLE_LIAR = "liar"
ROLE_SYBIL = "sybil"
ROLES = (ROLE_POISONER, ROLE_LIAR, ROLE_SYBIL)

#: Message kinds an adversary corrupts / an eclipse set blocks: the
#: lookup path.  Maintenance (inserts, repair) and cache traffic pass,
#: so the overlay stays consistent and the attack is *selective*.
LOOKUP_KINDS = (MessageKind.QUERY_REQUEST, MessageKind.FILE_REQUEST)


@dataclass(frozen=True)
class AdversaryPlan:
    """Seeded description of who misbehaves, and how.

    Counts are drawn from the node population by
    ``FaultyTransport.recruit``; ``sybil_joins`` is consumed by
    the simulation harness (Sybils must *join*, which only the harness
    can orchestrate).  An eclipse is total: every lookup message to a
    victim is lost.
    """

    poisoners: int = 0
    liars: int = 0
    sybil_joins: int = 0
    eclipse_victims: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("poisoners", "liars", "sybil_joins", "eclipse_victims"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")

    @property
    def is_zero(self) -> bool:
        """True when nobody misbehaves."""
        return (
            self.poisoners == 0
            and self.liars == 0
            and self.sybil_joins == 0
            and self.eclipse_victims == 0
        )


#: The honest plan: a transport carrying it behaves exactly like one
#: that was never told about adversaries.
NO_ADVERSARY = AdversaryPlan()


def corrupt(
    message: Message,
    response: Message,
    role: str,
    verify: bool,
    serials: Iterator[int],
    tracer: Optional["Tracer"],
) -> Message:
    """Replace an honest response with the role's forgery -- or, with
    content verification on, reject the *fabrications* among them.

    ``serials`` numbers the fabrications (one is drawn per forgery that
    carries invented content).  Withholding (the Sybil behavior) is
    never rejected here: an empty answer is valid signed content whoever
    sends it, so it is delivered in both modes and left to the service's
    cross-replica second opinion.
    """
    if role == ROLE_SYBIL and message.kind is not MessageKind.FILE_REQUEST:
        # Sybils withhold: they hold real key ranges (the join/repair
        # path replicated entries onto them) but answer with nothing.
        # No signature catches this -- the forged answer contains no
        # forged content -- so it passes even with verify on.
        counters.sec_poisoned_answers += 1
        return _forged_response(response, ())
    if verify:
        # The forgery would carry fabricated content: index entries
        # without a valid publisher attestation, or file bytes that
        # do not hash to the content-addressed descriptor.  Either
        # way the client detects it with certainty.
        counters.sec_verify_failures += 1
        if tracer is not None:
            tracer.sec_verify_fail(destination=message.destination, role=role)
        raise DeliveryError(DeliveryError.VERIFY_FAILED, message.destination)
    serial = next(serials)
    if message.kind is MessageKind.FILE_REQUEST:
        # Serve a forged file: claim the descriptor is stored
        # regardless of truth.  The caller sees found=True and walks
        # away with attacker-controlled bytes.
        key = str(message.payload[0]) if message.payload else "forged"
        counters.sec_poisoned_results += 1
        if tracer is not None:
            tracer.poisoned_result(destination=message.destination, key=key)
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
    return _forged_response(response, payload)


def _forged_response(response: Message, payload: tuple[str, ...]) -> Message:
    return Message(
        kind=response.kind,
        source=response.source,
        destination=response.destination,
        payload=payload,
        route_hops=response.route_hops,
        category=response.category,
    )
