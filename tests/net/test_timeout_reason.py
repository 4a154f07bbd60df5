"""The ``timeout`` delivery reason.

Real transports (repro.rpc) detect loss with a timer, so the typed
failure hierarchy gained a ``timeout`` reason.  These tests pin its
contract: transient exactly like ``dropped`` -- the engine retries the
same node, the service does *not* fail over to a replica -- so the
retry/failover split stays semantically identical between the simulated
and the real transport.
"""

import pytest

from repro.core.engine import LookupEngine
from repro.core.fields import ARTICLE_SCHEMA, Record
from repro.core.query import FieldQuery
from repro.core.scheme import simple_scheme
from repro.core.service import IndexService
from repro.dht.idspace import hash_key
from repro.dht.ring import IdealRing
from repro.net.transport import DeliveryError, SimulatedTransport
from repro.storage.store import DHTStorage

RECORD = Record(
    ARTICLE_SCHEMA,
    {
        "author": "karger",
        "title": "chord",
        "conf": "sigcomm",
        "year": "2001",
        "size": "9",
    },
)


class TimingOutTransport(SimulatedTransport):
    """Delivers normally, except the first ``failures`` sends time out."""

    def __init__(self, failures):
        super().__init__()
        self.failures = failures
        self.timeouts_raised = 0

    def send(self, message):
        if self.failures > 0:
            self.failures -= 1
            self.timeouts_raised += 1
            raise DeliveryError(DeliveryError.TIMEOUT, message.destination)
        return super().send(message)


def build_stack(transport):
    ring = IdealRing(64)
    for index in range(8):
        ring.add_node(hash_key(f"node-{index}", 64))
    service = IndexService(
        ARTICLE_SCHEMA,
        simple_scheme(),
        DHTStorage(ring),
        DHTStorage(ring),
        transport,
    )
    service.insert_record(RECORD)
    return service


class TestTimeoutReason:
    def test_timeout_is_a_distinct_reason(self):
        error = DeliveryError(DeliveryError.TIMEOUT, "node:1")
        assert error.reason == "timeout"
        assert error.reason != DeliveryError.DROPPED

    def test_timeout_is_transient_like_dropped(self):
        # retry_elsewhere drives both the engine's retry-vs-abort choice
        # and the service's replica failover: a timed-out node may well
        # be alive (or the response was lost), so the caller must retry
        # the SAME node, exactly as for a dropped message.
        timeout = DeliveryError(DeliveryError.TIMEOUT, "node:1")
        dropped = DeliveryError(DeliveryError.DROPPED, "node:1")
        assert timeout.retry_elsewhere == dropped.retry_elsewhere == False  # noqa: E712

    def test_service_propagates_timeout_without_failover(self):
        transport = TimingOutTransport(failures=1)
        service = build_stack(transport)
        with pytest.raises(DeliveryError) as excinfo:
            service.query(FieldQuery.msd_of(RECORD), "user:t")
        assert excinfo.value.reason == DeliveryError.TIMEOUT

    def test_engine_retries_timeouts_and_succeeds(self):
        transport = TimingOutTransport(failures=2)
        service = build_stack(transport)
        engine = LookupEngine(service, user="user:t")
        trace = engine.search(FieldQuery.msd_of(RECORD), RECORD)
        assert trace.found
        assert not trace.gave_up
        assert transport.timeouts_raised == 2
        assert trace.retries >= 2

    def test_engine_treats_timeout_and_dropped_identically(self):
        """Same failure count, either reason: same search outcome."""
        outcomes = []
        for reason in (DeliveryError.TIMEOUT, DeliveryError.DROPPED):

            class OneReasonTransport(TimingOutTransport):
                def send(self, message, _reason=reason):
                    if self.failures > 0:
                        self.failures -= 1
                        self.timeouts_raised += 1
                        raise DeliveryError(_reason, message.destination)
                    return SimulatedTransport.send(self, message)

            transport = OneReasonTransport(failures=2)
            engine = LookupEngine(build_stack(transport), user="user:t")
            trace = engine.search(FieldQuery.msd_of(RECORD), RECORD)
            outcomes.append(
                (trace.found, trace.retries, trace.interactions)
            )
        assert outcomes[0] == outcomes[1]
