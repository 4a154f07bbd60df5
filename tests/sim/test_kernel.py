"""Unit tests for the discrete-event kernel (repro.sim.kernel).

Every test runs against both schedulers (binary heap and timing wheel):
the ordering contract -- (time, seq), FIFO within a timestamp -- is the
kernel's public behaviour, so the two implementations must be
indistinguishable through it.
"""

import pytest

from repro.sim.kernel import (
    SCHEDULERS,
    EventKernel,
    KernelError,
    _HeapKernel,
    _WheelKernel,
)


@pytest.fixture(params=SCHEDULERS)
def make_kernel(request):
    """Factory building a kernel on the parametrized scheduler."""
    scheduler = request.param
    return lambda: EventKernel(scheduler=scheduler)


class TestScheduling:
    def test_clock_starts_at_zero(self, make_kernel):
        assert make_kernel().now == 0.0

    def test_events_fire_in_time_order(self, make_kernel):
        kernel = make_kernel()
        fired = []
        kernel.post(30.0, lambda: fired.append("c"))
        kernel.post(10.0, lambda: fired.append("a"))
        kernel.post(20.0, lambda: fired.append("b"))
        kernel.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self, make_kernel):
        kernel = make_kernel()
        fired = []
        for label in ("first", "second", "third"):
            kernel.post(5.0, lambda label=label: fired.append(label))
        kernel.run()
        assert fired == ["first", "second", "third"]

    def test_now_advances_to_event_time(self, make_kernel):
        kernel = make_kernel()
        seen = []
        kernel.post(12.5, lambda: seen.append(kernel.now))
        kernel.post(40.0, lambda: seen.append(kernel.now))
        final = kernel.run()
        assert seen == [12.5, 40.0]
        assert final == kernel.now == 40.0

    def test_delays_are_relative_to_now(self, make_kernel):
        kernel = make_kernel()
        times = []

        def chained():
            times.append(kernel.now)
            if len(times) < 3:
                kernel.post(10.0, chained)

        kernel.post(10.0, chained)
        kernel.run()
        assert times == [10.0, 20.0, 30.0]

    def test_zero_delay_runs_after_current_bookings(self, make_kernel):
        kernel = make_kernel()
        fired = []
        kernel.post(0.0, lambda: fired.append("booked-first"))
        kernel.post(0.0, lambda: fired.append("booked-second"))
        kernel.run()
        assert fired == ["booked-first", "booked-second"]
        assert kernel.now == 0.0

    def test_negative_delay_rejected(self, make_kernel):
        with pytest.raises(KernelError):
            make_kernel().post(-0.1, lambda: None)

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(KernelError):
            EventKernel(scheduler="fifo")


class TestRun:
    def test_run_on_empty_queue_returns_zero(self, make_kernel):
        kernel = make_kernel()
        assert kernel.run() == 0.0
        assert kernel.events_run == 0

    def test_events_run_counts_fired_callbacks(self, make_kernel):
        kernel = make_kernel()
        for _ in range(4):
            kernel.post(1.0, lambda: None)
        kernel.run()
        assert kernel.events_run == 4

    def test_deterministic_across_instances(self, make_kernel):
        def drive():
            kernel = make_kernel()
            fired = []

            def fan_out():
                for delay in (7.0, 3.0, 3.0):
                    kernel.post(
                        delay, lambda delay=delay: fired.append((kernel.now, delay))
                    )

            kernel.post(1.0, fan_out)
            kernel.post(2.0, lambda: fired.append((kernel.now, "fixed")))
            kernel.run()
            return fired, kernel.events_run, kernel.now

        assert drive() == drive()


class TestDispatch:
    def test_default_is_wheel(self):
        assert type(EventKernel()) is _WheelKernel

    def test_requested_scheduler_is_served(self):
        assert type(EventKernel(scheduler="heap")) is _HeapKernel
        assert type(EventKernel(scheduler="wheel")) is _WheelKernel

    def test_both_are_event_kernels(self):
        for scheduler in SCHEDULERS:
            assert isinstance(EventKernel(scheduler=scheduler), EventKernel)
