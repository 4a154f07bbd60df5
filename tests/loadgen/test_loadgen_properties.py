"""Property suite: schedule determinism/shape, sketch merge algebra.

Two pillars of the load generator's credibility live here:

- the arrival schedules are *reproducible* (bit-identical per
  ``(seed, worker, stage)`` cell) and genuinely *Poisson-shaped*
  (inter-arrival gaps exponential: mean ~ 1/rate, coefficient of
  variation ~ 1);
- the cross-process latency merge is sound: ``LogBucketQuantiles``
  merging is associative and commutative, and a merged sketch answers
  percentiles within the documented 0.99% relative error of the exact
  distribution.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import ExactQuantiles, LogBucketQuantiles
from repro.loadgen.schedule import schedule_digest, stage_schedule

seeds = st.integers(min_value=0, max_value=2**32 - 1)
small_ints = st.integers(min_value=0, max_value=7)
latencies = st.lists(
    st.floats(min_value=0.01, max_value=10_000.0,
              allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=300,
)


def sketch_of(values):
    sketch = LogBucketQuantiles()
    for value in values:
        sketch.add(value)
    return sketch


def sketch_state(sketch):
    """The observable identity of a sketch: everything percentile() reads."""
    state = sketch.to_state()
    # Bucket counts, totals, and extrema are integer/exact under merge
    # reordering; the float sum is compared approximately separately.
    return (
        tuple(sorted(state["buckets"].items())),
        state["zero_count"],
        state["count"],
        state["min"],
        state["max"],
    )


class TestScheduleProperties:
    @settings(max_examples=50, deadline=None)
    @given(seed=seeds, worker=small_ints, stage=small_ints)
    def test_reproducible_bit_for_bit(self, seed, worker, stage):
        kwargs = dict(num_store_records=10, num_base_records=25,
                      num_entry_classes=3)
        first = stage_schedule(seed, worker, stage, 40.0, 3.0, **kwargs)
        second = stage_schedule(seed, worker, stage, 40.0, 3.0, **kwargs)
        assert first == second
        assert schedule_digest(first) == schedule_digest(second)

    @settings(max_examples=15, deadline=None)
    @given(seed=seeds)
    def test_poisson_shape(self, seed):
        # One long stage gives ~4000 arrivals: enough for the law of
        # large numbers, generous bounds so the test cannot flake.
        rate = 400.0
        ops = stage_schedule(seed, 0, 0, rate, 10.0)
        times = [op.at_s for op in ops]
        gaps = [b - a for a, b in zip([0.0] + times[:-1], times)]
        assert len(gaps) > 2000
        mean = sum(gaps) / len(gaps)
        assert 0.75 / rate < mean < 1.25 / rate
        variance = sum((g - mean) ** 2 for g in gaps) / len(gaps)
        cv = math.sqrt(variance) / mean
        # Exponential gaps have CV = 1; uniform ~0.58, deterministic 0.
        assert 0.6 < cv < 1.4

    @settings(max_examples=15, deadline=None)
    @given(seed=seeds, fraction=st.floats(min_value=0.1, max_value=0.9))
    def test_mix_tracks_store_fraction(self, seed, fraction):
        ops = stage_schedule(seed, 0, 0, 400.0, 10.0,
                             store_fraction=fraction,
                             num_store_records=10, num_base_records=10)
        stores = sum(op.kind == "store" for op in ops)
        observed = stores / len(ops)
        assert abs(observed - fraction) < 0.08


class TestSketchMergeProperties:
    @settings(max_examples=40, deadline=None)
    @given(left=latencies, right=latencies)
    def test_merge_commutes(self, left, right):
        ab = sketch_of(left).merge(sketch_of(right))
        ba = sketch_of(right).merge(sketch_of(left))
        assert sketch_state(ab) == sketch_state(ba)
        assert math.isclose(ab.to_state()["sum"], ba.to_state()["sum"],
                            rel_tol=1e-9)
        for q in (0.5, 0.95, 0.99):
            assert ab.percentile(q) == ba.percentile(q)

    @settings(max_examples=40, deadline=None)
    @given(a=latencies, b=latencies, c=latencies)
    def test_merge_associates(self, a, b, c):
        left = sketch_of(a).merge(sketch_of(b)).merge(sketch_of(c))
        right = sketch_of(a).merge(sketch_of(b).merge(sketch_of(c)))
        assert sketch_state(left) == sketch_state(right)
        for q in (0.5, 0.95, 0.99):
            assert left.percentile(q) == right.percentile(q)

    @settings(max_examples=40, deadline=None)
    @given(parts=st.lists(latencies, min_size=2, max_size=5))
    def test_merged_sketch_tracks_exact_quantiles(self, parts):
        merged = LogBucketQuantiles()
        exact = ExactQuantiles()
        for part in parts:
            merged.merge(sketch_of(part))
            for value in part:
                exact.add(value)
        assert merged.count == exact.count
        bound = (1.02 - 1.0) / (1.02 + 1.0)  # (gamma - 1) / (gamma + 1) = 0.0099...
        assert bound < 0.0099 + 1e-6
        for q in (0.5, 0.9, 0.95, 0.99):
            estimate = merged.percentile(q)
            truth = exact.percentile(q)
            assert abs(estimate - truth) <= bound * truth + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(values=latencies)
    def test_state_round_trip_preserves_everything(self, values):
        sketch = sketch_of(values)
        clone = LogBucketQuantiles.from_state(sketch.to_state())
        assert sketch_state(clone) == sketch_state(sketch)
        for q in (0.5, 0.95, 0.99):
            assert clone.percentile(q) == sketch.percentile(q)

    @settings(max_examples=20, deadline=None)
    @given(values=latencies)
    def test_merge_with_empty_is_identity(self, values):
        sketch = sketch_of(values)
        merged = sketch_of(values).merge(LogBucketQuantiles())
        assert sketch_state(merged) == sketch_state(sketch)
