"""Scheduler equivalence and internals: heap vs. timing wheel.

The two schedulers behind :class:`repro.sim.kernel.EventKernel` must be
observationally identical -- same callback order, same clock, same event
count -- for every interleaving of schedule/post/cancel/step/run.  A
Hypothesis property drives random programs through both and compares the
full firing transcript; targeted tests pin the scheduler-specific
guarantees (O(1) ``pending``, heap compaction under cancel churn, wheel
resize/side-heap/scan behaviour) and the end-to-end promise that the
wheel -- the one kernel ``Experiment`` builds -- replays a trace recorded
on the heap byte for byte.
"""

import hashlib
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.experiment import Experiment
from repro.sim.kernel import EventKernel
from repro.sim.presets import CONCURRENT_CONFIG

# -- the random-program interpreter -----------------------------------------

# Delays mix small integers (forcing timestamp ties, the FIFO-order
# stress) with arbitrary floats (forcing bucket-boundary variety).
_DELAYS = st.one_of(
    st.integers(min_value=0, max_value=6).map(float),
    st.floats(min_value=0.0, max_value=64.0,
              allow_nan=False, allow_infinity=False),
)

# A booked callback may itself book children when it fires -- zero-delay
# children land at or behind the bucket being drained, which is exactly
# the side-heap path the wheel must merge in exact order.
_NESTED = st.lists(_DELAYS, max_size=3)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _DELAYS, _NESTED),
        st.tuples(st.just("post"), _DELAYS, _NESTED),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=999)),
        st.tuples(st.just("step")),
    ),
    max_size=60,
)


def _drive(scheduler: str, program) -> tuple:
    """Interpret one program against one scheduler; return the transcript."""
    kernel = EventKernel(scheduler=scheduler)
    order: list[tuple[float, int]] = []
    handles = []
    labels = iter(range(10**9))

    def make_callback(nested):
        label = next(labels)

        def callback():
            order.append((kernel.now, label))
            for delay in nested:
                kernel.post(delay, make_callback(()))

        return callback

    for op in program:
        kind = op[0]
        if kind == "schedule":
            handles.append(kernel.schedule(op[1], make_callback(op[2])))
        elif kind == "post":
            kernel.post(op[1], make_callback(op[2]))
        elif kind == "cancel":
            if handles:
                handles[op[1] % len(handles)].cancel()
        else:  # step
            kernel.step()
    kernel.run()
    return tuple(order), kernel.now, kernel.events_run, kernel.pending


class TestSchedulerEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(program=_OPS)
    def test_identical_transcripts(self, program):
        assert _drive("heap", program) == _drive("wheel", program)

    def test_dense_fuzz_many_seeds(self):
        """Seeded volume fuzz: thousands of events per run, both ways."""
        for seed in range(20):
            rng = random.Random(seed)
            program = []
            for _ in range(400):
                roll = rng.random()
                if roll < 0.45:
                    program.append(
                        ("post", rng.random() * 20,
                         [rng.random() * 4 for _ in range(rng.randrange(3))])
                    )
                elif roll < 0.85:
                    program.append(("schedule", rng.random() * 20, []))
                elif roll < 0.95:
                    program.append(("cancel", rng.randrange(1000)))
                else:
                    program.append(("step",))
            assert _drive("heap", program) == _drive("wheel", program)


# -- heap-specific guarantees ------------------------------------------------


class _TraversalTrap(list):
    """A heap stand-in that fails the test if anything iterates it."""

    def __iter__(self):
        raise AssertionError("pending must not traverse the event queue")

    def __len__(self):
        raise AssertionError("pending must not take the queue length")


class TestHeapPending:
    def test_pending_does_not_traverse_the_heap(self):
        kernel = EventKernel(scheduler="heap")
        for index in range(100):
            kernel.schedule(float(index), lambda: None)
        real_heap = kernel._heap
        kernel._heap = _TraversalTrap()
        try:
            assert kernel.pending == 100
        finally:
            kernel._heap = real_heap

    def test_pending_tracks_cancels_and_fires(self):
        kernel = EventKernel(scheduler="heap")
        handles = [kernel.schedule(1.0, lambda: None) for _ in range(10)]
        handles[3].cancel()
        handles[3].cancel()  # double-cancel must not double-count
        assert kernel.pending == 9
        kernel.run()
        assert kernel.pending == 0


class TestHeapCompaction:
    def test_cancel_churn_keeps_heap_bounded(self):
        """A schedule/cancel loop must not grow the heap without bound."""
        kernel = EventKernel(scheduler="heap")
        live = [kernel.schedule(1000.0, lambda: None) for _ in range(500)]
        peak = 0
        for index in range(20_000):
            kernel.schedule(float(index % 100), lambda: None).cancel()
            peak = max(peak, len(kernel._heap))
        # Compaction fires when cancelled entries outnumber live ones, so
        # the heap peaks near 2x the live population, never near 20,000.
        assert peak <= 2 * len(live) + kernel._COMPACT_MIN + 2
        assert kernel.stats()["compactions"] > 0
        kernel.run()
        assert kernel.events_run == len(live)

    def test_compaction_preserves_order(self):
        kernel = EventKernel(scheduler="heap")
        fired = []
        rng = random.Random(3)
        handles = []
        for index in range(2_000):
            delay = rng.random() * 50
            handles.append(
                kernel.schedule(delay, lambda delay=delay: fired.append(delay))
            )
        for handle in handles[::2]:
            handle.cancel()
        kernel.run()
        assert fired == sorted(fired)
        assert len(fired) == 1_000


# -- wheel-specific guarantees ----------------------------------------------


class TestWheelInternals:
    def test_dense_load_triggers_resize_and_keeps_order(self):
        kernel = EventKernel(scheduler="wheel")
        fired = []
        rng = random.Random(7)
        for _ in range(20_000):
            at = rng.random() * 100.0  # ~200 events per 1ms bucket
            kernel.post(at, lambda at=at: fired.append(at))
        kernel.run()
        assert fired == sorted(fired)
        assert len(fired) == 20_000
        assert kernel.stats()["rebuilds"] >= 1

    def test_sparse_horizon_uses_fallback_and_keeps_order(self):
        kernel = EventKernel(scheduler="wheel")
        fired = []
        for index in range(300):
            at = index * 1e7  # far beyond any forward-scan budget
            kernel.post(at, lambda at=at: fired.append(at))
        kernel.run()
        assert fired == sorted(fired)
        assert kernel.stats()["scan_fallbacks"] >= 1

    def test_zero_delay_booking_inside_callback_is_fifo(self):
        """Events booked into the draining bucket take the side heap."""
        kernel = EventKernel(scheduler="wheel")
        fired = []

        def parent(label):
            fired.append(label)
            if label < 3:
                kernel.post(0.0, lambda: parent(label + 10))
                kernel.schedule(0.0, lambda: parent(label + 100))

        kernel.post(5.0, lambda: parent(1))
        kernel.post(5.0, lambda: parent(2))
        kernel.post(5.0, lambda: parent(3))
        kernel.run()
        assert fired == [1, 2, 3, 11, 101, 12, 102]
        assert kernel.stats()["side_pushes"] >= 4

    def test_bad_parameters_rejected(self):
        from repro.sim.kernel import KernelError

        with pytest.raises(KernelError):
            EventKernel(scheduler="wheel", width_ms=0.0)
        with pytest.raises(KernelError):
            EventKernel(scheduler="wheel", target_occupancy=0)


# -- end-to-end: the wheel replays what the heap recorded ---------------------


class TestExperimentIdentity:
    def test_concurrent_smoke_bit_identical_across_schedulers(self):
        """The wheel -- the one kernel ``Experiment`` builds -- against
        the heap's recording: sha256 of the golden-replay cell's JSONL
        trace (16 users, churn, crashes, drops, latency) as taken on the
        binary heap (EXPERIMENTS.md, PR 14 pin table)."""
        config = replace(
            CONCURRENT_CONFIG,
            num_nodes=30,
            num_articles=200,
            num_queries=600,
            num_authors=80,
            churn_events=4,
            crash_events=2,
            crash_downtime_queries=80,
            trace=True,
        )
        experiment = Experiment(config)
        result = experiment.run()
        trace = "\n".join(experiment.tracer.jsonl_lines())
        assert (
            hashlib.sha256(trace.encode()).hexdigest()[:16]
            == "496afe3081283cc0"
        )
        assert result.perf_counters["kernel_events_run"] > result.searches
