"""In-process transport connecting endpoints by name.

The transport plays the role of the network between users and peer nodes:
endpoints (nodes, user agents) register under a unique name; messages are
delivered synchronously to the destination's handler, and every delivered
message is metered by the attached :class:`repro.net.traffic.TrafficMeter`.

The synchronous delivery model (:meth:`SimulatedTransport.send`) matches
the paper's simulation, which is a sequential feed of 50,000 queries --
there is no concurrency inside a single lookup, only iteration.

For the concurrent experiments the paper never ran, the transport also
supports *scheduled* delivery (:meth:`SimulatedTransport.send_async`):
bound to an event kernel and a latency model (:meth:`bind_clock`), a send
books the handler invocation at ``now + latency`` on the virtual clock
and the response arrival one response-leg later, so many lookups can be
in flight at once and hop latency -- not call order -- decides who gets
answered first.  Byte metering is identical in both modes.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING, Callable, Generator, Optional

from repro.net.message import Message
from repro.net.traffic import TrafficMeter

if TYPE_CHECKING:  # import cycle guard: sim.kernel is typing-only here
    from repro.net.latency import LatencyModel
    from repro.obs.tracer import Tracer
    from repro.sim.kernel import EventKernel


class TransportError(RuntimeError):
    """Raised on transport *misuse*: duplicate registrations and sends to
    destinations that never existed (a programming error in the caller)."""


class DeliveryError(TransportError):
    """A message could not be delivered for a *runtime* reason.

    Unlike :class:`TransportError` (misuse, not recoverable), a delivery
    error models a network condition a robust client is expected to
    handle: the destination departed, crashed, or the message was lost.
    ``reason`` is one of the ``*_REASON`` constants below and tells the
    retry logic whether trying another replica can help (a crashed node
    stays crashed) or whether retrying the same node is enough (a drop
    is transient).
    """

    #: The message was dropped on the wire (transient; retry same node).
    DROPPED = "dropped"
    #: The destination is crashed (persistent; fail over to a replica).
    CRASHED = "crashed"
    #: The destination unregistered after having existed (node departed).
    UNREGISTERED = "unregistered"
    #: No response arrived within the request deadline (real transports
    #: only: the simulated transport's failure detector is instantaneous,
    #: a socket's is a timer).  Transient, exactly like ``dropped`` -- a
    #: retransmission to the same node is expected to get through -- so
    #: the engine's retry logic and the service's failover policy treat
    #: the two reasons identically.
    TIMEOUT = "timeout"
    #: A response arrived but failed signature verification (the sender
    #: could not prove the claimed identity -- see :mod:`repro.sec`).  The
    #: answer is discarded as if the node were unreachable, and because a
    #: forger will keep forging, failover to another replica is the only
    #: productive retry.
    VERIFY_FAILED = "verify_failed"

    def __init__(self, reason: str, destination: str) -> None:
        super().__init__(f"delivery failed ({reason}): {destination!r}")
        self.reason = reason
        self.destination = destination

    @property
    def retry_elsewhere(self) -> bool:
        """Whether another replica could answer where this node did not."""
        return self.reason in (self.CRASHED, self.UNREGISTERED, self.VERIFY_FAILED)


Endpoint = Callable[[Message], Optional[Message]]
#: Continuation receiving the (optional) response of an async exchange.
ResponseCallback = Callable[[Optional[Message]], None]
#: Continuation receiving the DeliveryError of a failed async exchange.
ErrorCallback = Callable[["DeliveryError"], None]
#: One exchange in flight: yields the delays to wait out, returns the
#: response, raises the DeliveryError.
_Delivery = Generator[float, None, Optional[Message]]


class SimulatedTransport:
    """Routes messages between named endpoints and meters them.

    An endpoint is any callable taking a :class:`Message` and returning an
    optional response message (itself metered and returned to the caller).
    """

    def __init__(self, meter: Optional[TrafficMeter] = None) -> None:
        self.meter = meter if meter is not None else TrafficMeter()
        self._endpoints: dict[str, Endpoint] = {}
        # Names that existed at some point: distinguishes "never existed"
        # (programming error) from "departed" (runtime condition).
        self._ever_registered: set[str] = set()
        # Virtual-time mode (bind_clock): unset means synchronous-only.
        self.kernel: Optional["EventKernel"] = None
        self.latency: Optional["LatencyModel"] = None
        # Observability (bind_tracer): unset means zero-overhead untraced.
        self.tracer: Optional["Tracer"] = None

    def register(self, name: str, endpoint: Endpoint) -> None:
        """Attach an endpoint under a unique name."""
        if name in self._endpoints:
            raise TransportError(f"endpoint already registered: {name!r}")
        self._endpoints[name] = endpoint
        self._ever_registered.add(name)

    def unregister(self, name: str) -> None:
        """Detach an endpoint (e.g. a departed node)."""
        if name not in self._endpoints:
            raise TransportError(f"no such endpoint: {name!r}")
        del self._endpoints[name]

    def is_registered(self, name: str) -> bool:
        """True when an endpoint with this name exists."""
        return name in self._endpoints

    @property
    def endpoint_names(self) -> list[str]:
        return list(self._endpoints)

    def send(self, message: Message) -> Optional[Message]:
        """Deliver a message; meter it and any synchronous response.

        Returns the destination's response message, if it produced one.
        Sending to a name that *never* existed raises
        :class:`TransportError` (a programming error); sending to a name
        that existed but has since unregistered raises the typed
        :class:`DeliveryError` (a runtime condition -- the node departed
        between resolution and delivery).  A message lost in flight still
        costs its request bytes, so failed sends are metered.
        """
        return _complete(self._delivery(message, False))

    # -- virtual-time delivery ---------------------------------------------

    def bind_clock(
        self, kernel: "EventKernel", latency: "LatencyModel"
    ) -> None:
        """Attach the event kernel and latency model for scheduled sends."""
        self.kernel = kernel
        self.latency = latency

    # -- observability ------------------------------------------------------

    def bind_tracer(self, tracer: Optional["Tracer"]) -> None:
        """Attach (or detach, with ``None``) the lookup tracer.

        Tracing is pure observation: it reads message facts the transport
        already computed, so bound or not, delivery behaviour, metering,
        and random-draw sequences are identical.
        """
        self.tracer = tracer

    def _hop_delay(self, message: Message) -> float:
        """One-way delay of a message: per-hop latency times route legs.

        Every leg is charged the sampled (source, destination) latency --
        the intermediate overlay relays are anonymous, so the endpoint
        pair stands in for each of them.  A direct message has
        ``route_hops == 1`` and costs exactly one sample.
        """
        assert self.latency is not None
        sample = self.latency.sample(message.source, message.destination)
        return sample * max(1, message.route_hops)

    def send_async(
        self,
        message: Message,
        on_result: ResponseCallback,
        on_error: ErrorCallback,
    ) -> None:
        """Deliver a message through the virtual clock.

        The handler runs at ``now + hop_delay``; its response (if any)
        arrives back at the sender one response leg later, passed to
        ``on_result``.  Handlers and callbacks never run inside this
        call -- everything goes through the kernel heap, so concurrent
        exchanges interleave strictly by virtual time.

        Runtime failures are *reported, not raised*: ``on_error``
        receives the :class:`DeliveryError` after the request's one-way
        delay (an idealized failure detector -- the sender learns of the
        loss when a timeout of one leg expires).  Misuse -- sending to a
        name that never existed, or sending without :meth:`bind_clock` --
        still raises :class:`TransportError` synchronously.
        """
        self._schedule(self._delivery(message, True), on_result, on_error)

    def _delivery(
        self,
        message: Message,
        timed: bool,
        lost: Optional[str] = None,
    ) -> _Delivery:
        """One exchange, written once for both drivers.

        ``timed`` deliveries yield each leg's delay for the kernel driver
        to wait out; untimed ones (:meth:`send`) never yield, cost zero
        delay and sample no latency.  ``lost`` is the fault layer's
        verdict that nobody answers this request: it fails with that
        reason where the handler would have run.  A leg that fails is
        traced only when timed: the sender waited it out, so it is on
        the lookup's clock, whereas the inline failure took no time.
        """
        destination = message.destination
        handler = self._endpoints.get(destination)
        if handler is None and destination not in self._ever_registered:
            raise TransportError(f"no such endpoint: {destination!r}")
        # The sender spends the request bytes now, delivered or not.
        self.meter.record(message)
        tracer = self.tracer
        # Attribution for both legs is captured now: by the time a timed
        # arrival fires, other lookups' sends will have moved the
        # tracer's current-span pointer.
        span = tracer.current if tracer is not None else None
        delay = self._hop_delay(message) if timed else 0.0
        if tracer is not None and (
            timed or (handler is not None and lost is None)
        ):
            tracer.message_hop(message, "request", delay, span)
        if timed:
            yield delay
            # Resolved again at arrival: a node that departed while the
            # message was in flight is as unreachable as one that left
            # before it was sent.
            handler = self._endpoints.get(destination)
        if lost is not None:
            raise DeliveryError(lost, destination)
        if handler is None:
            raise DeliveryError(DeliveryError.UNREGISTERED, destination)
        response = handler(message)
        if response is not None:
            self.meter.record(response)
            delay = self._hop_delay(response) if timed else 0.0
            if tracer is not None:
                tracer.message_hop(response, "response", delay, span)
            if timed:
                yield delay
        return response

    def _schedule(
        self,
        delivery: _Delivery,
        on_result: ResponseCallback,
        on_error: ErrorCallback,
    ) -> None:
        """The kernel driver: each delay a timed delivery yields becomes
        one posted event; its outcome goes to the continuations.

        The clock check comes before the delivery's first step, so a
        misuse raises with no byte metered and no fault drawn.
        """
        if self.kernel is None or self.latency is None:
            raise TransportError("send_async requires bind_clock() first")
        span = None if self.tracer is None else self.tracer.current
        self._leg(delivery, on_result, on_error, span)

    def _leg(self, delivery: _Delivery, on_result, on_error, span) -> None:
        """One resume of ``delivery``, under the span current when it was
        booked: the fault layer traces forgeries on the response leg."""
        tracer = self.tracer
        with nullcontext() if tracer is None else tracer.activated(span):
            try:
                delay = next(delivery)
            except StopIteration as done:
                finish, outcome = on_result, done.value
            except DeliveryError as error:
                finish, outcome = on_error, error
            else:
                # A fresh lambda per leg rather than one closure
                # re-posting itself: a self-referencing closure is a
                # reference cycle, and every send would wait for the
                # garbage collector.
                self.kernel.post(
                    delay, lambda: self._leg(delivery, on_result, on_error, span)
                )
                return
        finish(outcome)


def _discard(outcome: object) -> None:
    """Continuation of an outcome nobody awaits."""


def _complete(delivery: _Delivery) -> Optional[Message]:
    """The blocking driver: an untimed delivery never waits, so one step
    runs it to its end inline."""
    try:
        next(delivery)
    except StopIteration as done:
        return done.value
    raise AssertionError("an untimed delivery asked to wait")
