"""Link-latency models for substrate experiments.

The paper deliberately excludes DHT lookup latency from its evaluation
("any optimization of the underlying P2P network ... will improve the
response time ... but these are completely independent issues").  The
latency models here exist for the substrate-independence ablation, where
we *do* report how lookup delay scales with hop count under Chord and
Kademlia, to substantiate that the indexing layer is latency-neutral.
"""

from __future__ import annotations

import math
import random
import zlib
from typing import Protocol


class LatencyModel(Protocol):
    """Yields a one-way delay (in milliseconds) for a single hop."""

    def sample(self, source: str, destination: str) -> float:
        """Latency of a message from ``source`` to ``destination``."""
        ...


class ZeroLatency:
    """Every hop is instantaneous.

    The event-kernel equivalent of the paper's synchronous feed: with
    zero hop delay, event order degenerates to scheduling order, which
    is how sequential-mode equivalence is guaranteed.
    """

    def sample(self, source: str, destination: str) -> float:
        """Latency of one hop (always zero)."""
        return 0.0


class ConstantLatency:
    """Every hop costs the same fixed delay."""

    def __init__(self, milliseconds: float = 50.0) -> None:
        if not 0 <= milliseconds < math.inf:
            raise ValueError("latency must be finite and non-negative")
        self.milliseconds = milliseconds

    def sample(self, source: str, destination: str) -> float:
        """Latency of one hop (constant)."""
        return self.milliseconds


class SeededUniformLatency:
    """Per-pair latency drawn once from a uniform range, then fixed.

    Each (source, destination) pair gets a stable delay, so repeated
    traversals of the same overlay path cost the same -- a reasonable
    stand-in for static Internet path latencies.
    """

    def __init__(
        self, low: float = 10.0, high: float = 100.0, seed: int = 0
    ) -> None:
        if not 0 <= low <= high < math.inf:
            raise ValueError("need 0 <= low <= high, both finite")
        self.low = low
        self.high = high
        self.seed = seed
        self._cache: dict[tuple[str, str], float] = {}

    def sample(self, source: str, destination: str) -> float:
        """Latency of one hop (stable per source-destination pair)."""
        if source == destination:
            return 0.0
        pair = (source, destination)
        if pair not in self._cache:
            # crc32, not hash(): string hashing is salted per process, and
            # per-pair delays must be identical across repeated runs for
            # the determinism guarantees of the event kernel.
            digest = zlib.crc32(f"{source}\x00{destination}".encode("utf-8"))
            generator = random.Random((digest ^ self.seed) & 0xFFFFFFFF)
            self._cache[pair] = generator.uniform(self.low, self.high)
        return self._cache[pair]


def parse_latency_model(spec: str, seed: int = 0) -> LatencyModel:
    """Build a latency model from a compact CLI/config spec string.

    Accepted forms::

        zero                    no hop delay (the default)
        constant[:MS]           fixed delay, default 50 ms
        uniform[:LOW:HIGH]      stable per-pair delay in [LOW, HIGH] ms,
                                default [10, 100]

    ``seed`` feeds the uniform model so two runs with the same
    configuration draw identical per-pair delays.
    """
    name, _, rest = spec.partition(":")
    parts = rest.split(":") if rest else []
    try:
        if name == "zero" and not parts:
            return ZeroLatency()
        if name == "constant" and len(parts) <= 1:
            return ConstantLatency(float(parts[0])) if parts else ConstantLatency()
        if name == "uniform" and len(parts) in (0, 2):
            if parts:
                return SeededUniformLatency(
                    float(parts[0]), float(parts[1]), seed=seed
                )
            return SeededUniformLatency(seed=seed)
    except ValueError as error:
        raise ValueError(f"bad latency model spec {spec!r}: {error}") from None
    raise ValueError(
        f"unknown latency model {spec!r} "
        "(expected zero | constant[:MS] | uniform[:LOW:HIGH])"
    )
