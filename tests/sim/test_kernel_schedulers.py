"""Scheduler equivalence and internals: heap vs. timing wheel.

The two schedulers behind :class:`repro.sim.kernel.EventKernel` must be
observationally identical -- same callback order, same clock, same event
count -- for every interleaving of post (from the top level and from
inside callbacks) and run.  A Hypothesis property drives random programs
through both and compares the full firing transcript; targeted tests pin
the wheel's own guarantees (resize, side heap, scan fallback) and the
end-to-end promise that the wheel -- the one kernel ``Experiment``
builds -- replays traces recorded on the heap byte for byte.
"""

import hashlib
import random
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.experiment import Experiment
from repro.sim.kernel import EventKernel
from repro.sim.presets import CONCURRENT_CONFIG, get_preset

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
        st.tuples(st.just("post"), _DELAYS, _NESTED),
        st.tuples(st.just("run")),
    ),
    max_size=60,
)


def _drive(scheduler: str, program) -> tuple:
    """Interpret one program against one scheduler; return the transcript."""
    kernel = EventKernel(scheduler=scheduler)
    order: list[tuple[float, int]] = []
    labels = iter(range(10**9))

    def make_callback(nested):
        label = next(labels)

        def callback():
            order.append((kernel.now, label))
            for delay in nested:
                kernel.post(delay, make_callback(()))

        return callback

    for op in program:
        if op[0] == "post":
            kernel.post(op[1], make_callback(op[2]))
        else:  # run: drain, then keep booking on the advanced clock
            kernel.run()
    kernel.run()
    return tuple(order), kernel.now, kernel.events_run


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
                elif roll < 0.95:
                    program.append(("post", rng.random() * 20, []))
                else:
                    program.append(("run",))
            assert _drive("heap", program) == _drive("wheel", program)


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
                kernel.post(0.0, lambda: parent(label + 100))

        kernel.post(5.0, lambda: parent(1))
        kernel.post(5.0, lambda: parent(2))
        kernel.post(5.0, lambda: parent(3))
        kernel.run()
        assert fired == [1, 2, 3, 11, 101, 12, 102]
        assert kernel.stats()["side_pushes"] >= 4


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

    def test_open_loop_bit_identical_across_schedulers(self):
        """The open-loop shape against the heap's recording: Poisson
        arrivals pre-book the whole feed before ``run()``, the one
        ``Experiment`` shape whose bookings cross the wheel's resize
        check.  sha256 of its JSONL trace as taken on the binary heap
        (EXPERIMENTS.md, "One event type")."""
        config = replace(
            get_preset("smoke"),
            concurrency=4,
            latency_model="uniform:10:100",
            arrival_interval_ms=20.0,
            num_queries=6000,
            trace=True,
        )
        experiment = Experiment(config)
        result = experiment.run()
        trace = "\n".join(experiment.tracer.jsonl_lines())
        assert (
            hashlib.sha256(trace.encode()).hexdigest()[:16]
            == "d2280b917a536a25"
        )
        assert result.perf_counters["kernel_rebuilds"] >= 1
