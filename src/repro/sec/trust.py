"""Per-peer trust ledger.

Scores live in [0, 1] and start at 1.0 (trust until proven otherwise).
Failures multiply the score down -- signature failures hardest,
contradicted answers next, timeouts lightly -- and successful exchanges
recover it additively, so a peer that was briefly eclipsed earns its
way back while a persistent forger stays pinned near zero.  The index
service uses :meth:`prioritize` to try trusted replicas first during
failover; ordering within each trust class is preserved, so runs with a
fully trusted population are order-identical to runs without a ledger.

All arithmetic is deterministic (no draws, no wall clock), which keeps
adversarial experiment cells bit-reproducible under a fixed seed.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

VERIFY_FAILURE_FACTOR = 0.25
CONTRADICTION_FACTOR = 0.5
TIMEOUT_FACTOR = 0.9
SUCCESS_RECOVERY = 0.02
DEFAULT_THRESHOLD = 0.5


class TrustLedger:
    """Tracks per-peer trust scores keyed by endpoint name."""

    __slots__ = ("threshold", "_scores", "updates")

    def __init__(self, threshold: float = DEFAULT_THRESHOLD):
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        self.threshold = threshold
        self._scores: Dict[str, float] = {}
        self.updates = 0

    # -- recording ---------------------------------------------------

    def _scale(self, peer: str, factor: float) -> float:
        score = self._scores.get(peer, 1.0) * factor
        self._scores[peer] = score
        self.updates += 1
        return score

    def record_verify_failure(self, peer: str) -> float:
        """A frame from ``peer`` failed signature verification."""
        return self._scale(peer, VERIFY_FAILURE_FACTOR)

    def record_contradiction(self, peer: str) -> float:
        """``peer`` gave an answer contradicted by a later exchange."""
        return self._scale(peer, CONTRADICTION_FACTOR)

    def record_timeout(self, peer: str) -> float:
        """``peer`` dropped or timed out on an exchange."""
        return self._scale(peer, TIMEOUT_FACTOR)

    def record_success(self, peer: str) -> float:
        score = self._scores.get(peer, 1.0)
        if score >= 1.0:
            return score
        score = min(1.0, score + SUCCESS_RECOVERY)
        self._scores[peer] = score
        self.updates += 1
        return score

    # -- queries -----------------------------------------------------

    def score(self, peer: str) -> float:
        return self._scores.get(peer, 1.0)

    def is_trusted(self, peer: str) -> bool:
        return self.score(peer) >= self.threshold

    def prioritize(self, peers: Sequence[str]) -> List[str]:
        """Stable partition: trusted peers first, order preserved."""
        if not self._scores:
            return list(peers)
        trusted = [p for p in peers if self.is_trusted(p)]
        if len(trusted) == len(peers):
            return list(peers)
        flagged = [p for p in peers if not self.is_trusted(p)]
        return trusted + flagged

    def flagged(self) -> List[str]:
        """Peers currently below the trust threshold, sorted by name."""
        return sorted(p for p, s in self._scores.items() if s < self.threshold)

    def __len__(self) -> int:
        return len(self._scores)
