"""Event-kernel scheduler micro-benchmark: heap vs. timing wheel.

Times the kernel's two primitives -- booking (push) and draining (pop)
-- for both schedulers at two horizon shapes:

- **dense**: millions of events packed into a short virtual horizon
  (the web-scale simulation shape: 10,000 concurrent lookups x a few
  hundred ms of hop latency), where heap pops pay O(log n) Python-level
  comparisons and the wheel pays amortized O(1);
- **sparse**: events spread over a horizon much wider than the event
  count, where the wheel's forward scan has to skip empty buckets.

Plus a steady-state churn phase (interleaved book/drain at a bounded
in-flight population), which is the shape the experiment driver
actually produces.

Results are dumped to ``benchmarks/results/kernel_throughput.json``
(events/sec per phase per scheduler plus the wheel/heap ratios); the
committed ``BENCH_kernel.json`` at the repo root records the measured
trajectory PR over PR.  The one hard assertion is the tentpole
acceptance: the wheel must beat the heap by a wide margin on the dense
drain phase (asserted at a CI-safe fraction of the measured ~6.5-8.5x).
"""

import json
import pathlib
import time

import pytest

from repro.sim.kernel import SCHEDULERS, EventKernel

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Events per timed phase.  Large enough that per-phase timing noise is
#: well under the asserted ratio margin, small enough for CI.
N_DENSE = 1_000_000
N_SPARSE = 100_000
N_STEADY = 200_000
#: Dense horizon in virtual ms (N_DENSE / 500 events per default bucket).
DENSE_HORIZON = 2_000.0
#: Sparse horizon: ~50 buckets per event at the default width.
SPARSE_HORIZON = 5_000_000.0

_RESULTS: dict[str, dict] = {}


def _synthetic_delays(count: int, horizon: float) -> list[float]:
    """Deterministic, well-spread delays (a seeded LCG, no RNG import)."""
    state = 0x2545F491
    delays = []
    scale = horizon / 0xFFFFFFFF
    for _ in range(count):
        state = (state * 1103515245 + 12345) & 0xFFFFFFFF
        delays.append(state * scale)
    return delays


def _bench_push(scheduler: str, delays: list[float]) -> tuple[float, EventKernel]:
    kernel = EventKernel(scheduler=scheduler)
    post = kernel.post
    noop = lambda: None  # noqa: E731
    started = time.perf_counter()
    for delay in delays:
        post(delay, noop)
    elapsed = time.perf_counter() - started
    return len(delays) / elapsed, kernel


def _bench_pop(kernel: EventKernel, count: int) -> float:
    started = time.perf_counter()
    kernel.run()
    elapsed = time.perf_counter() - started
    assert kernel.events_run == count
    return count / elapsed


def _bench_steady(scheduler: str, count: int) -> float:
    """Interleaved book/drain at a bounded in-flight population."""
    kernel = EventKernel(scheduler=scheduler)
    post = kernel.post
    remaining = [count]

    def rebook():
        if remaining[0] > 0:
            remaining[0] -= 1
            post(7.5, rebook)

    for _ in range(5_000):  # the standing population
        remaining[0] -= 1
        post(7.5, rebook)
    started = time.perf_counter()
    kernel.run()
    elapsed = time.perf_counter() - started
    assert kernel.events_run == count
    return count / elapsed


def _phase(name: str, scheduler: str, events_per_sec: float) -> None:
    _RESULTS.setdefault(name, {})[scheduler] = round(events_per_sec)


@pytest.fixture(scope="module", autouse=True)
def _dump_json():
    yield
    for phase, by_scheduler in _RESULTS.items():
        if "heap" in by_scheduler and "wheel" in by_scheduler:
            by_scheduler["wheel_over_heap"] = round(
                by_scheduler["wheel"] / by_scheduler["heap"], 2
            )
    payload = {
        "events_per_sec": _RESULTS,
        "n_dense": N_DENSE,
        "n_sparse": N_SPARSE,
        "n_steady": N_STEADY,
        "dense_horizon_ms": DENSE_HORIZON,
        "sparse_horizon_ms": SPARSE_HORIZON,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "kernel_throughput.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_kernel_dense(scheduler):
    delays = _synthetic_delays(N_DENSE, DENSE_HORIZON)
    push_rate, kernel = _bench_push(scheduler, delays)
    pop_rate = _bench_pop(kernel, N_DENSE)
    _phase("push_dense", scheduler, push_rate)
    _phase("pop_dense", scheduler, pop_rate)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_kernel_sparse(scheduler):
    delays = _synthetic_delays(N_SPARSE, SPARSE_HORIZON)
    push_rate, kernel = _bench_push(scheduler, delays)
    pop_rate = _bench_pop(kernel, N_SPARSE)
    _phase("push_sparse", scheduler, push_rate)
    _phase("pop_sparse", scheduler, pop_rate)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_kernel_steady_state(scheduler):
    _phase("steady_state", scheduler, _bench_steady(scheduler, N_STEADY))


def test_wheel_beats_heap_on_dense_pop():
    """The tentpole acceptance phase, asserted at a CI-safe margin.

    The wheel drains dense horizons ~6.5-8.5x faster than the heap of
    ``(time, seq, callback)`` tuples (three runs, 2-core Intel Xeon,
    CPython 3.11; ~15-18x against the earlier heap of event objects);
    4x leaves room for noisy shared runners while still catching a
    regression that would cost the wheel half its lead.
    """
    delays = _synthetic_delays(N_DENSE, DENSE_HORIZON)
    _, heap_kernel = _bench_push("heap", delays)
    heap_rate = _bench_pop(heap_kernel, N_DENSE)
    _, wheel_kernel = _bench_push("wheel", delays)
    wheel_rate = _bench_pop(wheel_kernel, N_DENSE)
    assert wheel_rate >= 4 * heap_rate, (
        f"wheel {wheel_rate:,.0f}/s vs heap {heap_rate:,.0f}/s "
        f"({wheel_rate / heap_rate:.1f}x, expected >= 4x)"
    )
