"""Discrete-event kernel with a deterministic virtual clock.

The paper's simulation is a synchronous feed: one query is one Python
call stack, and "response time" does not exist ("any optimization of the
underlying P2P network ... will improve the response time ... but these
are completely independent issues").  To measure what the paper punts on
-- per-query latency under concurrent traffic -- the stack needs a
notion of *when* every message arrives, independent of wall-clock time.

:class:`EventKernel` supplies that notion with one booking call and one
drain:

- ``post(delay_ms, callback)`` books ``callback`` at ``now +
  delay_ms``.  Events are ordered by ``(time, seq)`` where ``seq`` is a
  monotonically increasing tie-breaker, so two callbacks booked for the
  same virtual instant fire in booking order -- the whole simulation is
  a deterministic function of its inputs;
- ``run()`` drains the queue in that order, advancing ``now`` to each
  event's timestamp before invoking it, and returns the final time.

A booking cannot be cancelled, and the queue drains only as a whole.

There is deliberately **no wall-clock anywhere**: the kernel never calls
``time.time`` or sleeps.  Virtual milliseconds are just an ordering
device, which is exactly what latency measurements need -- hop delays
(from :mod:`repro.net.latency`) order deliveries, overlapping lookups
contend for the same nodes in a reproducible interleaving, and the
response-time percentiles of a run are bit-stable across repetitions.

Two schedulers implement that contract:

- ``EventKernel()`` (the default, and the one every simulation runs) is
  a calendar queue (an adaptive timing wheel): events land in buckets
  keyed by ``int(time / width)``, the next non-empty bucket is found by
  scanning forward from the current one, and a bucket is sorted once --
  with C-level tuple comparisons -- when the clock reaches it.  The
  bucket width adapts in both directions (shrinking as density grows,
  widening as it falls) so buckets stay near a small target occupancy,
  giving amortized O(1) pops at dense horizons.  Events booked *into*
  the bucket currently being drained go to a small side heap that is
  merged on the fly, preserving exact ``(time, seq)`` order.
- ``EventKernel(scheduler="heap")`` is a binary heap of ``(time, seq,
  callback)`` tuples at O(log n) per pop: the order oracle the tests
  hold the wheel to, and the baseline the layer benchmark times it
  against.

Both run callbacks in the identical order for the identical ``post``
sequence (a property-test suite pins this), so the choice of scheduler
never changes a measured number -- only how fast it is produced.
"""

from __future__ import annotations

import gc
import heapq
from typing import Callable, Optional

#: Scheduler names accepted by :class:`EventKernel`.
SCHEDULERS: tuple[str, ...] = ("heap", "wheel")


class KernelError(RuntimeError):
    """Raised on kernel misuse (negative delays, unknown scheduler names)."""


class EventKernel:
    """Deterministic virtual-time event loop.

    ``now`` is in virtual milliseconds and starts at 0.0.  All state is
    local to the instance, so independent simulations never interact.
    ``EventKernel(scheduler="wheel"|"heap")`` picks the implementation
    (the wheel by default); both obey the same ``(time, seq)``
    FIFO-within-timestamp contract.
    """

    __slots__ = ("_now", "_seq", "events_run")

    def __new__(cls, scheduler: str = "wheel"):
        if cls is EventKernel:
            try:
                cls = _IMPLEMENTATIONS[scheduler]
            except KeyError:
                raise KernelError(
                    f"unknown scheduler {scheduler!r}; expected one of "
                    f"{SCHEDULERS}"
                ) from None
        return object.__new__(cls)

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        #: Events executed so far (a cheap progress/determinism probe).
        self.events_run = 0

    @property
    def now(self) -> float:
        """Current virtual time, in milliseconds."""
        return self._now

    # Subclasses implement: post, run.


class _HeapKernel(EventKernel):
    """The order oracle: a binary heap of ``(time, seq, callback)``
    tuples.  ``seq`` is unique, so a comparison never reaches the
    callback."""

    __slots__ = ("_heap",)

    def __init__(self, scheduler: str = "heap") -> None:
        super().__init__()
        self._heap: list[tuple] = []

    def post(self, delay_ms: float, callback: Callable[[], None]) -> None:
        """Book ``callback`` to fire at ``now + delay_ms``.

        A zero delay is allowed and fires after all events already
        booked for the current instant (FIFO within a timestamp).
        """
        if delay_ms < 0:
            raise KernelError(f"cannot schedule into the past: {delay_ms}")
        heapq.heappush(self._heap, (self._now + delay_ms, self._seq, callback))
        self._seq += 1

    def run(self) -> float:
        """Drain the queue; returns the final virtual time."""
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            self._now, _, callback = heappop(heap)
            self.events_run += 1
            callback()
        return self._now


class _WheelKernel(EventKernel):
    """Calendar-queue scheduler: adaptive-width buckets of event tuples.

    Entries are ``(time, seq, callback)`` tuples, so all ordering
    comparisons happen at C level; ``seq`` is unique, so a comparison
    never reaches the callback.

    The bucket width rescales to the target occupancy whenever average
    occupancy drifts 4x past it in either direction: total entries moved
    by all rebuilds is O(n) amortized, buckets stay small enough that
    the one-time sort per bucket costs O(log target) comparisons per
    event, and sparse horizons stop paying ~1/occupancy empty forward
    probes per pop.  The next
    non-empty bucket is found by scanning forward (near-certain hit at
    target occupancy); a scan that exhausts its probe budget falls back
    to ``min()`` over the remaining bucket indices, which only happens
    in sparse tails where that set is small or time jumps are huge.
    """

    __slots__ = (
        "_inv",
        "_buckets",
        "_active",
        "_ai",
        "_alen",
        "_aidx",
        "_side",
        "_rebuilds",
        "_entries_moved",
        "_scan_probes",
        "_scan_fallbacks",
        "_side_pushes",
    )

    #: Initial bucket width in virtual ms.
    _WIDTH_MS = 1.0
    #: Average bucket occupancy the width adapts towards.
    _TARGET = 8
    #: Probes budgeted per forward scan before falling back to min().
    _SCAN_LIMIT = 256
    #: Posts between occupancy checks (must be a power of two minus one).
    _RESIZE_MASK = 4095

    def __init__(self, scheduler: str = "wheel") -> None:
        super().__init__()
        self._inv = 1.0 / self._WIDTH_MS
        self._buckets: dict[int, list] = {}
        self._active: list = []
        self._ai = 0
        self._alen = 0
        self._aidx = -1
        self._side: list = []
        self._rebuilds = 0
        self._entries_moved = 0
        self._scan_probes = 0
        self._scan_fallbacks = 0
        self._side_pushes = 0

    # -- booking -----------------------------------------------------------

    def post(self, delay_ms: float, callback: Callable[[], None]) -> None:
        """Book ``callback`` to fire at ``now + delay_ms``.

        This is the hot path: one tuple and one list append per event.
        """
        if delay_ms < 0:
            raise KernelError(f"cannot schedule into the past: {delay_ms}")
        t = self._now + delay_ms
        seq = self._seq
        self._seq = seq + 1
        entry = (t, seq, callback)
        idx = int(t * self._inv)
        # The side heap holds everything booked at or behind the bucket
        # currently being drained (idx can be *behind* it when the clock
        # has not yet advanced into the acquired bucket); the drain
        # merges it entry-by-entry, so ordering stays exact.
        if idx <= self._aidx:
            heapq.heappush(self._side, entry)
            self._side_pushes += 1
        else:
            bucket = self._buckets.get(idx)
            if bucket is None:
                self._buckets[idx] = [entry]
            else:
                bucket.append(entry)
        if not (seq & self._RESIZE_MASK):
            self._maybe_resize()

    # -- adaptive width ----------------------------------------------------

    def _maybe_resize(self) -> None:
        # Only resize between bucket drains: the active bucket and side
        # heap are index-relative, so a width change mid-drain would
        # strand them.
        if self._ai < self._alen or self._side:
            return
        buckets = len(self._buckets)
        if buckets < 32:
            return
        # Bookings minus events run.  ``run`` settles ``events_run`` on
        # exit, so inside a drain this also counts the drain's fired
        # events: the occupancy every recorded run was resized by.
        queued = self._seq - self.events_run
        occupancy = queued / buckets
        target = self._TARGET
        if occupancy > 4 * target:
            # Too dense: shrink buckets so the per-bucket sort stays small.
            self._rebuild(self._inv * (occupancy / target))
        elif occupancy < target / 4 and queued >= 4096:
            # Too sparse: widen buckets so the forward scan stops paying
            # ~1/occupancy empty probes per acquire.  Both directions
            # rescale to the target, so a rebuild fires only when
            # occupancy drifts 4x past it -- the population must quadruple
            # (or quarter) between rebuilds, keeping total entry moves
            # O(n) amortized.
            self._rebuild(self._inv * (occupancy / target))

    def _rebuild(self, new_inv: float) -> None:
        """Re-bucket every pending entry under a new width.

        GC is paused for the duration: the rebuild allocates one new
        bucket list per index while millions of event tuples are live,
        and generational collections during that burst would rescan them
        all for nothing (nothing becomes garbage until the old dict is
        dropped at the end).
        """
        self._inv = new_inv
        self._rebuilds += 1
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            rebucketed: dict[int, list] = {}
            get = rebucketed.get
            for bucket in self._buckets.values():
                self._entries_moved += len(bucket)
                for entry in bucket:
                    idx = int(entry[0] * new_inv)
                    new_bucket = get(idx)
                    if new_bucket is None:
                        rebucketed[idx] = [entry]
                    else:
                        new_bucket.append(entry)
            self._buckets = rebucketed
            self._aidx = -1
        finally:
            if gc_was_enabled:
                gc.enable()

    # -- draining ----------------------------------------------------------

    def _acquire(self) -> Optional[list]:
        """Pop, sort, and activate the next non-empty bucket."""
        buckets = self._buckets
        if not buckets:
            return None
        base = int(self._now * self._inv)
        idx = self._aidx + 1 if self._aidx >= base else base
        get = buckets.get
        limit = idx + self._SCAN_LIMIT
        probes = 0
        while idx <= limit:
            bucket = get(idx)
            if bucket is not None:
                break
            idx += 1
            probes += 1
        else:
            idx = min(buckets)
            bucket = buckets[idx]
            self._scan_fallbacks += 1
        self._scan_probes += probes
        del buckets[idx]
        bucket.sort()
        self._active = bucket
        self._aidx = idx
        self._alen = len(bucket)
        self._ai = 0
        return bucket

    def run(self) -> float:
        """Drain the queue; returns the final virtual time.

        A tight loop over each sorted bucket, merging the side heap
        entry by entry while it is non-empty.
        """
        heappop = heapq.heappop
        side = self._side
        nrun = 0
        ai = self._ai
        try:
            while True:
                active = self._active
                alen = self._alen
                if ai >= alen:
                    if side:
                        entry = heappop(side)
                        self._now = entry[0]
                        nrun += 1
                        entry[2]()
                        continue
                    if self._acquire() is None:
                        return self._now
                    ai = 0
                    continue
                while ai < alen:
                    if side:
                        entry = active[ai]
                        if side[0] < entry:
                            entry = heappop(side)
                        else:
                            ai += 1
                        self._now = entry[0]
                        nrun += 1
                        entry[2]()
                    else:
                        i = ai
                        for entry in active[i:]:
                            self._now = entry[0]
                            i += 1
                            nrun += 1
                            entry[2]()
                            if side:
                                break
                        ai = i
        finally:
            self._ai = ai
            self.events_run += nrun

    def stats(self) -> dict[str, int]:
        """Scheduler-internal operation counts (regression-guard probes)."""
        return {
            "buckets": len(self._buckets),
            "rebuilds": self._rebuilds,
            "entries_moved": self._entries_moved,
            "scan_probes": self._scan_probes,
            "scan_fallbacks": self._scan_fallbacks,
            "side_pushes": self._side_pushes,
        }


_IMPLEMENTATIONS: dict[str, type] = {
    "heap": _HeapKernel,
    "wheel": _WheelKernel,
}
