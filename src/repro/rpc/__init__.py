"""Real wire protocol for the index stack: codec, transport, daemons.

The simulation (:mod:`repro.sim`) runs the whole overlay in one process
over a virtual clock.  This package makes the *same* stack runnable as
real networked processes:

- :mod:`repro.rpc.codec` -- the versioned, deterministic wire format for
  :class:`repro.net.message.Message` (frame spec in the module
  docstring), plus the measured-vs-estimated size accounting;
- :mod:`repro.rpc.transport` -- :class:`AsyncioTransport`, a TCP
  transport with the simulated transport's ``send``/``send_async``
  surface, wall-clock deadlines and lost connections mapped onto the typed
  :class:`~repro.net.transport.DeliveryError` hierarchy;
- :mod:`repro.rpc.daemon` -- :class:`NodeDaemon`, one substrate node on
  one socket (served by ``python -m repro.node``);
- :mod:`repro.rpc.cluster` -- :class:`LocalCluster` /
  :class:`ClusterClient`, the loopback harness used by the integration
  tests and ``examples/real_cluster.py``.

Simulation semantics are untouched: nothing here is imported by
:mod:`repro.sim`, and the simulated transport remains the default
everywhere else.
"""

from repro.rpc.codec import (
    WIRE_VERSION,
    CodecError,
    StreamUnframer,
    decode_frame,
    decode_message,
    encode_frame,
    encode_message,
    encode_stream,
)
from repro.rpc.cluster import ClusterClient, LocalCluster
from repro.rpc.daemon import NodeDaemon
from repro.rpc.transport import (
    AsyncioTransport,
    WallClock,
    daemon_endpoint_name,
)

__all__ = [
    "WIRE_VERSION",
    "CodecError",
    "StreamUnframer",
    "decode_frame",
    "decode_message",
    "encode_frame",
    "encode_message",
    "encode_stream",
    "AsyncioTransport",
    "WallClock",
    "daemon_endpoint_name",
    "NodeDaemon",
    "ClusterClient",
    "LocalCluster",
]
