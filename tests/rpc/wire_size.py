"""A message's measured wire size and its gap to ``Message.size_bytes``:
the cross-check the size-estimate tests pin."""

from __future__ import annotations

from repro.net.message import HEADER_BYTES, Message
from repro.rpc.codec import ENVELOPE_BYTES, MESSAGE_FIXED_BYTES, encode_message


def measured_size_bytes(message: Message) -> int:
    """The real number of bytes this message occupies on the wire.

    Counts the full frame -- envelope plus encoded body -- as sent in
    one UDP datagram (the stream length prefix of the TCP path is
    excluded: it is transport framing, not message content).  The
    traffic layer can cross-check this measurement against the estimate
    :attr:`Message.size_bytes` computes; :func:`estimate_delta` gives
    the exact difference.
    """
    return ENVELOPE_BYTES + len(encode_message(message))


def estimate_delta(message: Message) -> int:
    """Exact gap between the measured and the estimated size.

    For a payload-derived message (``explicit_size is None``)::

        measured - estimated = (ENVELOPE_BYTES + MESSAGE_FIXED_BYTES
                                - HEADER_BYTES)
                               + len(utf8(source)) + len(utf8(destination))

    i.e. a fixed framing delta of 7 bytes plus the endpoint names the
    estimate deliberately ignores (they are simulation-local).  With an
    explicit size the flag tail adds 8 more bytes -- but then
    ``size_bytes`` returns the caller's figure (a file's article size),
    which the wire size of the *descriptor* is unrelated to, so the
    cross-check only binds the payload-derived case.  A tier-1 test
    asserts ``measured_size_bytes(m) == m.size_bytes + estimate_delta(m)``
    for payload-derived messages of every kind.
    """
    fixed = ENVELOPE_BYTES + MESSAGE_FIXED_BYTES - HEADER_BYTES
    names = len(message.source.encode("utf-8")) + len(
        message.destination.encode("utf-8")
    )
    tail = 8 if message.explicit_size is not None else 0
    return fixed + names + tail
