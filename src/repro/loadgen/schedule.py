"""Deterministic open-loop arrival schedules and request mixes.

This is the load generator's *pure* core: given a seed and a stage
description, it produces the exact sequence of operations one worker
process will replay -- Poisson arrival instants (exponential
inter-arrival times at the stage's offered rate) and, per arrival, the
operation kind (store vs retrieve at the configured mix, 1:3 by
default) plus the record/entry-class indices the operation targets.

Everything here is a function of ``(seed, worker, stage)`` only: no
wall clock, no sockets, no shared state.  Repeated runs with the same
seed therefore produce byte-identical schedules in every worker -- the
property suite pins reproducibility and the Poisson shape, and
:func:`schedule_digest` turns a schedule into a short digest the
benchmark record carries so identical-mix reruns are checkable.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

#: Operation kinds; a store publishes a record, a retrieve runs one
#: covering-chain lookup.
STORE = "store"
RETRIEVE = "retrieve"

#: The paper-style workload mix: one store per three retrieves.
DEFAULT_STORE_FRACTION = 0.25


@dataclass(frozen=True)
class Op:
    """One scheduled operation of a worker's stage script.

    ``at_s`` is the arrival offset from the stage start (seconds);
    ``record_index`` selects the target record (store pool for stores,
    seeded base corpus for retrieves) and ``entry_class`` selects which
    of the scheme's entry classes the retrieve restricts its query to.
    """

    at_s: float
    kind: str
    record_index: int
    entry_class: int


def stage_rng(seed: int, worker: int, stage: int) -> random.Random:
    """The deterministic RNG of one ``(seed, worker, stage)`` cell.

    Seeded by a string so derivation is stable across processes and
    Python versions (string seeding hashes via SHA-512, unlike
    ``hash()`` which is salted per process).
    """
    return random.Random(f"loadgen:{seed}:{worker}:{stage}")


def stage_schedule(
    seed: int,
    worker: int,
    stage: int,
    rate_hz: float,
    duration_s: float,
    *,
    store_fraction: float = DEFAULT_STORE_FRACTION,
    num_store_records: int = 1,
    num_base_records: int = 1,
    num_entry_classes: int = 1,
) -> list[Op]:
    """One worker's operation script for one ramp stage.

    Arrivals form a Poisson process of intensity ``rate_hz`` truncated
    to ``duration_s`` (inter-arrival gaps drawn ``Exp(rate)``); each
    arrival independently becomes a store with probability
    ``store_fraction``.  Pure and deterministic: calling twice returns
    equal lists.
    """
    if not 0 < rate_hz < math.inf:
        raise ValueError("rate_hz must be positive and finite")
    if not 0 < duration_s < math.inf:
        raise ValueError("duration_s must be positive and finite")
    if not 0.0 <= store_fraction <= 1.0:
        raise ValueError("store_fraction outside [0, 1]")
    rng = stage_rng(seed, worker, stage)
    ops: list[Op] = []
    at = rng.expovariate(rate_hz)
    while at < duration_s:
        if rng.random() < store_fraction:
            ops.append(
                Op(at, STORE, rng.randrange(num_store_records), 0)
            )
        else:
            ops.append(
                Op(
                    at,
                    RETRIEVE,
                    rng.randrange(num_base_records),
                    rng.randrange(num_entry_classes),
                )
            )
        at += rng.expovariate(rate_hz)
    return ops


def schedule_digest(ops: list[Op]) -> str:
    """Short stable digest of a schedule (arrivals + mix).

    Arrival times enter via ``repr`` of the float, so two schedules
    digest equal exactly when every instant and every operation choice
    matches bit for bit.
    """
    hasher = hashlib.sha256()
    for op in ops:
        hasher.update(
            f"{op.at_s!r}|{op.kind}|{op.record_index}|{op.entry_class}\n".encode()
        )
    return hasher.hexdigest()[:16]


def combine_digests(digests: list[str]) -> str:
    """Fold per-worker digests into one run-level digest."""
    hasher = hashlib.sha256()
    for digest in digests:
        hasher.update(digest.encode())
        hasher.update(b"\n")
    return hasher.hexdigest()[:16]
