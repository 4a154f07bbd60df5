"""Simulated network substrate.

The paper's evaluation abstracts the physical network away and reports
application-level traffic: bytes of queries and responses exchanged between
the user and the indexing system, split into *normal* and *cache* traffic
(Figure 12).  This package provides the pieces that make those measurements
reproducible:

- :mod:`repro.net.message` -- typed messages with a deterministic byte-size
  model (query/response/cache-insert payloads),
- :mod:`repro.net.traffic` -- a traffic meter summing bytes and messages
  by category (Figure 12),
- :mod:`repro.net.transport` -- an in-process transport that routes
  messages between registered endpoints while metering them,
- :mod:`repro.net.faults` -- deterministic fault injection (message
  loss, refusal of marked-down endpoints, and the Byzantine population
  of :mod:`repro.net.adversary`) wrapping the transport behind the same
  endpoint protocol,
- :mod:`repro.net.latency` -- pluggable link-latency models so substrate
  experiments can report lookup delays; the only source of per-hop
  delay.
"""

from repro.net.faults import NO_FAULTS, FaultPlan, FaultyTransport
from repro.net.latency import (
    ConstantLatency,
    LatencyModel,
    SeededUniformLatency,
    ZeroLatency,
    parse_latency_model,
)
from repro.net.message import Message, MessageKind, TrafficCategory
from repro.net.traffic import TrafficMeter
from repro.net.transport import (
    DeliveryError,
    Endpoint,
    SimulatedTransport,
    TransportError,
)

__all__ = [
    "Message",
    "MessageKind",
    "TrafficCategory",
    "TrafficMeter",
    "Endpoint",
    "SimulatedTransport",
    "TransportError",
    "DeliveryError",
    "NO_FAULTS",
    "FaultPlan",
    "FaultyTransport",
    "ConstantLatency",
    "LatencyModel",
    "SeededUniformLatency",
    "ZeroLatency",
    "parse_latency_model",
]
