"""Tests for the windowed-rollup layer (`repro.telemetry.timeseries`).

The quantile sketch underpins every live-observability feature (registry
histograms, Prometheus buckets, SLO burn rates, campaign merges), so its
algebra is pinned hard here:

* **merge laws** — merging is associative and commutative with the
  empty sketch as identity, bit-for-bit on the serialized form (the
  campaign supervisor folds per-worker sketches in arbitrary order);
* **accuracy** — hypothesis-generated samples keep every estimated
  quantile within the alpha relative-error bound of the exact
  nearest-rank quantile;
* **fixed memory** — bucket collapsing caps the map size while
  preserving tail accuracy;
* **rollup store** — counters roll to windowed rates, gauges to
  last/peak, histograms to mergeable delta sketches, and per-worker
  stores merge bin-aligned.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.telemetry.timeseries import (
    DEFAULT_ALPHA,
    QuantileSketch,
    TimeseriesStore,
    merge_rollups,
    merge_sketches,
)

SETTINGS = dict(max_examples=80, deadline=None, derandomize=True)

values_strategy = st.lists(
    st.floats(
        min_value=1e-6,
        max_value=1e6,
        allow_nan=False,
        allow_infinity=False,
    ),
    min_size=1,
    max_size=200,
)


def sketch_of(values, **kwargs):
    sketch = QuantileSketch(**kwargs)
    for value in values:
        sketch.add(value)
    return sketch


def exact_quantile(values, q):
    """Nearest-rank (higher) quantile — the sketch's convention."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


class TestSketchBasics:
    def test_empty(self):
        sketch = QuantileSketch()
        assert sketch.count == 0
        assert sketch.quantile(0.5) == 0.0
        assert sketch.mean() == 0.0
        assert sketch.bad_fraction(1.0) == 0.0
        assert len(sketch) == 0

    def test_single_value_exact(self):
        sketch = sketch_of([3.25])
        for q in (0.0, 0.5, 0.99, 1.0):
            assert sketch.quantile(q) == 3.25
        assert sketch.mean() == 3.25
        assert sketch.min == 3.25 and sketch.max == 3.25

    def test_two_values_tail_biased(self):
        sketch = sketch_of([1.0, 3.0])
        assert sketch.quantile(0.99) == 3.0
        assert sketch.quantile(0.5) == pytest.approx(1.0, rel=0.02)

    def test_exact_stats_ride_along(self):
        values = [0.5, 1.5, 2.5, 10.0]
        sketch = sketch_of(values)
        assert sketch.count == 4
        assert sketch.total == pytest.approx(sum(values))
        assert sketch.min == 0.5 and sketch.max == 10.0

    def test_negative_and_zero_values(self):
        sketch = sketch_of([-2.0, 0.0, 2.0])
        assert sketch.count == 3
        assert sketch.quantile(0.0) == -2.0
        assert sketch.quantile(1.0) == 2.0
        assert sketch.count_le(0.0) == 2

    def test_weighted_add(self):
        sketch = QuantileSketch()
        sketch.add(1.0, count=99)
        sketch.add(100.0, count=1)
        assert sketch.count == 100
        assert sketch.quantile(0.5) == pytest.approx(1.0, rel=0.02)
        assert sketch.quantile(1.0) == 100.0

    def test_bad_fraction(self):
        sketch = sketch_of([0.001] * 90 + [1.0] * 10)
        assert sketch.bad_fraction(0.01) == pytest.approx(0.10, abs=1e-9)
        assert sketch.bad_fraction(2.0) == 0.0
        assert sketch.bad_fraction(0.0001) == 1.0

    def test_quantile_validates_range(self):
        with pytest.raises(ValueError):
            QuantileSketch().quantile(1.5)

    def test_ctor_validates(self):
        with pytest.raises(ValueError):
            QuantileSketch(alpha=0.0)
        with pytest.raises(ValueError):
            QuantileSketch(max_buckets=1)


class TestSketchMergeLaws:
    """Merging must form a commutative monoid on serialized sketches."""

    def canon(self, sketch):
        return sketch.to_dict()

    def test_empty_identity(self):
        values = [0.1, 2.0, 35.0]
        base = sketch_of(values)
        left = merge_sketches([QuantileSketch(), sketch_of(values)])
        right = merge_sketches([sketch_of(values), QuantileSketch()])
        assert self.canon(left) == self.canon(base)
        assert self.canon(right) == self.canon(base)

    def test_commutative(self):
        a = sketch_of([1.0, 2.0, 3.0])
        b = sketch_of([0.01, 50.0])
        assert self.canon(merge_sketches([a, b])) == self.canon(
            merge_sketches([b, a])
        )

    def test_associative(self):
        a = sketch_of([1.0, 2.0])
        b = sketch_of([4.0] * 10)
        c = sketch_of([0.25, 8.0, 16.0])
        ab_c = merge_sketches([merge_sketches([a, b]), c])
        a_bc = merge_sketches([a, merge_sketches([b, c])])
        assert self.canon(ab_c) == self.canon(a_bc)

    def test_merge_equals_union(self):
        left, right = [0.5, 1.0, 2.0], [3.0, 4.0, 100.0]
        merged = merge_sketches([sketch_of(left), sketch_of(right)])
        union = sketch_of(left + right)
        assert self.canon(merged) == self.canon(union)

    def test_merge_rejects_mismatched_alpha(self):
        a = QuantileSketch(alpha=0.01)
        b = QuantileSketch(alpha=0.05)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_sketches_empty_iterable(self):
        out = merge_sketches([])
        assert out.count == 0

    @given(
        values_strategy,
        values_strategy,
    )
    @settings(**SETTINGS)
    def test_merge_union_property(self, left, right):
        merged = merge_sketches([sketch_of(left), sketch_of(right)])
        union = sketch_of(left + right)
        a, b = merged.to_dict(), union.to_dict()
        # Float addition isn't associative, so ``sum`` may differ in the
        # last ulp between groupings; the bucket algebra is exact.
        assert a.pop("sum") == pytest.approx(b.pop("sum"), rel=1e-12)
        assert a == b


class TestSketchAccuracy:
    @given(values_strategy, st.sampled_from([0.5, 0.9, 0.95, 0.99]))
    @settings(**SETTINGS)
    def test_quantile_within_alpha(self, values, q):
        """Every estimate is within alpha relative error of the exact
        nearest-rank quantile (the DDSketch guarantee)."""
        sketch = sketch_of(values)
        exact = exact_quantile(values, q)
        estimate = sketch.quantile(q)
        assert abs(estimate - exact) <= DEFAULT_ALPHA * exact + 1e-12

    @given(values_strategy)
    @settings(**SETTINGS)
    def test_extremes_exact(self, values):
        sketch = sketch_of(values)
        assert sketch.quantile(0.0) == min(values)
        assert sketch.quantile(1.0) == max(values)

    @given(values_strategy)
    @settings(**SETTINGS)
    def test_serialization_round_trip(self, values):
        sketch = sketch_of(values)
        clone = QuantileSketch.from_dict(sketch.to_dict())
        assert clone.to_dict() == sketch.to_dict()
        assert clone.quantile(0.95) == sketch.quantile(0.95)

    def test_histogram_round_trip(self):
        """A registry ``Histogram`` is its sketch, so the inherited
        ``from_dict`` reads one back, nameless (it raised ``TypeError:
        unexpected keyword argument 'alpha'`` before PR 22)."""
        from repro.telemetry import Histogram

        histogram = Histogram("fabric.fct_seconds")
        for value in (0.0, 1e-3, 2.5, 2.5):
            histogram.observe(value)
        clone = Histogram.from_dict(histogram.to_dict())
        assert type(clone) is Histogram and clone.name == ""
        assert clone.summary() == histogram.summary()


class TestSketchBounds:
    def test_collapsing_caps_buckets(self):
        sketch = QuantileSketch(max_buckets=16)
        for i in range(1, 500):
            sketch.add(float(i))
        assert len(sketch) <= 16
        assert sketch.count == 499

    def test_collapse_preserves_tail_accuracy(self):
        sketch = QuantileSketch(max_buckets=16)
        values = [float(i) for i in range(1, 500)]
        for value in values:
            sketch.add(value)
        exact = exact_quantile(values, 0.99)
        # Collapsing folds the *low* end; the p99 stays within alpha.
        assert abs(sketch.quantile(0.99) - exact) <= DEFAULT_ALPHA * exact

    def test_cumulative_buckets_monotone(self):
        sketch = sketch_of([0.1, 0.5, 1.0, 5.0, 5.0, 50.0])
        pairs = sketch.cumulative_buckets()
        bounds = [bound for bound, _ in pairs]
        counts = [count for _, count in pairs]
        assert bounds == sorted(bounds)
        assert counts == sorted(counts)
        assert counts[-1] == sketch.count

    def test_delta_of_grown_sketch(self):
        earlier = sketch_of([1.0, 2.0])
        later = earlier.copy()
        later.add(10.0)
        later.add(20.0)
        delta = later.delta(earlier)
        assert delta.count == 2
        assert delta.total == pytest.approx(30.0)
        assert delta.quantile(1.0) == pytest.approx(20.0, rel=0.02)
        assert delta.quantile(0.0) == pytest.approx(10.0, rel=0.02)


class TestTimeseriesStore:
    def _registry(self):
        from repro.telemetry import MetricsRegistry

        return MetricsRegistry()

    def test_counter_windowed_rate(self):
        store = TimeseriesStore(bin_width=1.0, bins=60)
        reg = self._registry()
        ctr = reg.counter("events")
        for t in range(10):
            ctr.inc(5)
            store.sample(float(t), reg)
        assert store.counter_delta("events", window=5.0, now=9.0) == 25
        assert store.rate("events", window=5.0, now=9.0) == pytest.approx(5.0)

    def test_gauge_last_and_peak(self):
        store = TimeseriesStore(bin_width=1.0, bins=60)
        reg = self._registry()
        gauge = reg.gauge("depth")
        for t, value in enumerate([1.0, 9.0, 2.0]):
            gauge.set(value)
            store.sample(float(t), reg)
        assert store.gauge_last("depth", now=2.0) == 2.0
        assert store.gauge_max("depth", window=3.0, now=2.0) == 9.0
        assert store.gauge_last("missing", now=2.0) is None
        assert store.gauge_max("missing", window=3.0, now=2.0) is None

    def test_histogram_delta_sketches(self):
        store = TimeseriesStore(bin_width=1.0, bins=60)
        reg = self._registry()
        hist = reg.histogram("lat")
        hist.observe(0.001)
        store.sample(0.0, reg)
        hist.observe(5.0)
        hist.observe(6.0)
        store.sample(1.0, reg)
        # Window covering only the second bin sees only the new values
        # (a partially-covered start bin is excluded).
        recent = store.window_sketch("lat", window=0.5, now=1.0)
        assert recent.count == 2
        assert recent.quantile(0.0) >= 4.0
        full = store.window_sketch("lat", window=10.0, now=1.0)
        assert full.count == 3

    def test_quantile_and_bad_fraction_none_when_empty(self):
        store = TimeseriesStore()
        assert store.quantile("x", 0.99, window=5.0, now=10.0) is None
        assert store.bad_fraction("x", 1.0, window=5.0, now=10.0) is None

    def test_ring_eviction_bounds_memory(self):
        store = TimeseriesStore(bin_width=1.0, bins=5)
        reg = self._registry()
        ctr = reg.counter("c")
        for t in range(50):
            ctr.inc()
            store.sample(float(t), reg)
        bins = store.to_dict()["counters"]["c"]
        assert len(bins) <= 5
        # Only the most recent window survives.
        assert store.counter_delta("c", window=5.0, now=49.0) <= 5

    def test_sampling_is_readonly_on_registry(self):
        store = TimeseriesStore()
        reg = self._registry()
        reg.counter("c").inc(3)
        reg.histogram("h").observe(1.5)
        before = reg.as_dict()
        store.sample(1.0, reg)
        store.sample(2.0, reg)
        assert reg.as_dict() == before

    def test_store_round_trip(self):
        store = TimeseriesStore(bin_width=0.5, bins=20)
        reg = self._registry()
        reg.counter("c").inc(7)
        reg.gauge("g").set(3.5)
        reg.histogram("h").observe(0.25)
        store.sample(1.0, reg)
        clone = TimeseriesStore.from_dict(store.to_dict())
        assert clone.to_dict() == store.to_dict()
        assert clone.counter_delta("c", window=5.0, now=1.0) == 7

    def test_validates_params(self):
        with pytest.raises(ValueError):
            TimeseriesStore(bin_width=0.0)
        with pytest.raises(ValueError):
            TimeseriesStore(bins=0)
        store = TimeseriesStore()
        store.record_counter(0.5, "c", 1.0)
        with pytest.raises(ValueError):
            store.counter_delta("c", window=0.0, now=1.0)


class TestMergeRollups:
    def _store_with(self, offset):
        from repro.telemetry import MetricsRegistry

        store = TimeseriesStore(bin_width=1.0, bins=60)
        reg = MetricsRegistry()
        ctr = reg.counter("c")
        gauge = reg.gauge("g")
        hist = reg.histogram("h")
        for t in range(3):
            ctr.inc(2)
            gauge.set(float(offset + t))
            hist.observe(float(offset + t + 1))
            store.sample(float(t), reg)
        return store

    def test_bin_aligned_merge(self):
        merged = merge_rollups([self._store_with(0), self._store_with(10)])
        # Counters add per-bin.
        assert merged.counter_delta("c", window=10.0, now=2.0) == 12
        # Gauges take the cross-worker max.
        assert merged.gauge_last("g", now=2.0) == 12.0
        # Sketches merge.
        assert merged.window_sketch("h", window=10.0, now=2.0).count == 6

    def test_merge_empty(self):
        out = merge_rollups([])
        assert out.samples == 0

    def test_merge_rejects_mismatched_bin_width(self):
        with pytest.raises(ValueError):
            merge_rollups(
                [TimeseriesStore(bin_width=1.0), TimeseriesStore(bin_width=2.0)]
            )
