"""obs.metrics: instruments, snapshots, and the associative merge.

The merge properties here are load-bearing: ``ExecutionEngine.map``
workers return per-worker snapshots that the parent folds in submission
order, and the pool==serial identity promise only holds if that fold is
associative, commutative, and canonical-ordered.
"""

import pytest

from repro.obs.metrics import (
    DEFAULT_FRACTION_BUCKETS,
    DEFAULT_LATENCY_BUCKETS_S,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    quantile_from_buckets,
)


class TestCounter:
    def test_int_increments_stay_int(self):
        reg = MetricsRegistry()
        c = reg.counter("clips_total")
        c.inc()
        c.inc(3)
        assert c.value == 4
        assert isinstance(c.value, int)

    def test_float_increments_allowed(self):
        reg = MetricsRegistry()
        c = reg.counter("wall_seconds")
        c.inc(0.5)
        c.inc(0.25)
        assert c.value == pytest.approx(0.75)

    def test_negative_increment_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="only go up"):
            reg.counter("clips_total").inc(-1)

    def test_labeled_series_are_distinct(self):
        reg = MetricsRegistry()
        reg.counter("verdicts", verdict="accept").inc(2)
        reg.counter("verdicts", verdict="reject").inc(5)
        snap = reg.snapshot()
        assert snap.counter_value("verdicts", verdict="accept") == 2
        assert snap.counter_value("verdicts", verdict="reject") == 5


class TestGauge:
    def test_set_overwrites(self):
        reg = MetricsRegistry()
        g = reg.gauge("buffer_depth")
        g.set(3)
        g.set(7)
        assert g.value == pytest.approx(7.0)


class TestRegistryContracts:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a", x="1") is reg.counter("a", x="1")
        assert len(reg) == 1

    def test_kind_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError, match="is a counter, not a gauge"):
            reg.gauge("a")

    def test_histogram_bounds_clash_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="already registered"):
            reg.histogram("h", buckets=(1.0, 3.0))

    def test_non_creating_get(self):
        reg = MetricsRegistry()
        assert reg.get("missing") is None
        reg.counter("present")
        assert reg.get("present") is not None
        assert len(reg) == 1


class TestHistogram:
    def test_bucket_layout(self):
        h = Histogram("h", bounds=(0.1, 1.0, 10.0))
        assert len(h.bucket_counts) == 4  # three finite + overflow

    def test_observe_routes_to_correct_bucket(self):
        h = Histogram("h", bounds=(0.1, 1.0))
        h.observe(0.05)  # <= 0.1
        h.observe(0.5)  # <= 1.0
        h.observe(2.0)  # overflow
        assert h.bucket_counts == [1, 1, 1]
        assert h.count == 3
        assert h.sum == pytest.approx(2.55)

    def test_boundary_lands_in_lower_bucket(self):
        h = Histogram("h", bounds=(0.1, 1.0))
        h.observe(0.1)
        assert h.bucket_counts == [1, 0, 0]

    def test_non_increasing_bounds_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", bounds=(1.0, 1.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", bounds=(2.0, 1.0))
        with pytest.raises(ValueError, match="at least one"):
            Histogram("h", bounds=())

    def test_default_bucket_constants_are_valid(self):
        Histogram("a", bounds=DEFAULT_LATENCY_BUCKETS_S)
        Histogram("b", bounds=DEFAULT_FRACTION_BUCKETS)


class TestQuantiles:
    def test_empty_histogram_is_zero(self):
        assert quantile_from_buckets((1.0, 2.0), (0, 0, 0), 0.5) == pytest.approx(0.0)

    def test_interpolates_within_bucket(self):
        # 10 observations all in the (1.0, 2.0] bucket: p50 sits mid-bucket.
        assert quantile_from_buckets((1.0, 2.0), (0, 10, 0), 0.5) == pytest.approx(1.5)

    def test_overflow_bucket_reports_top_bound(self):
        assert quantile_from_buckets((1.0, 2.0), (0, 0, 5), 0.99) == pytest.approx(2.0)

    def test_invalid_q_rejected(self):
        with pytest.raises(ValueError, match="q must lie"):
            quantile_from_buckets((1.0,), (0, 0), 1.5)

    def test_mismatched_counts_rejected(self):
        with pytest.raises(ValueError, match="len\\(bounds\\) \\+ 1"):
            quantile_from_buckets((1.0,), (0,), 0.5)


def _snapshot(*counter_values: tuple[str, int]) -> MetricsSnapshot:
    reg = MetricsRegistry()
    for name, value in counter_values:
        reg.counter(name).inc(value)
    reg.histogram("lat", buckets=(0.1, 1.0)).observe(0.05)
    return reg.snapshot()


def _fold(*snapshots: MetricsSnapshot) -> MetricsSnapshot:
    """What the parent does with worker snapshots: fold each into one
    live registry with ``merge_snapshot``."""
    reg = MetricsRegistry()
    for snap in snapshots:
        reg.merge_snapshot(snap)
    return reg.snapshot()


class TestMergeAlgebra:
    def test_merge_is_associative(self):
        a = _snapshot(("x", 1))
        b = _snapshot(("x", 2), ("y", 5))
        c = _snapshot(("y", 7))
        left = _fold(_fold(a, b), c)
        right = _fold(a, _fold(b, c))
        assert left == right

    def test_merge_is_commutative(self):
        a = _snapshot(("x", 1))
        b = _snapshot(("x", 2), ("y", 5))
        assert _fold(a, b) == _fold(b, a)

    def test_histograms_merge_bucketwise(self):
        r1 = MetricsRegistry()
        r1.histogram("h", buckets=(0.1, 1.0)).observe(0.05)
        r2 = MetricsRegistry()
        r2.histogram("h", buckets=(0.1, 1.0)).observe(0.5)
        merged = _fold(r1.snapshot(), r2.snapshot())
        series = merged.get("h", kind="histogram")
        assert series.bucket_counts == (1, 1, 0)
        assert series.count == 2

    def test_histogram_bounds_mismatch_raises(self):
        r1 = MetricsRegistry()
        r1.histogram("h", buckets=(0.1,)).observe(0.05)
        r2 = MetricsRegistry()
        r2.histogram("h", buckets=(0.2,)).observe(0.05)
        with pytest.raises(ValueError, match="already registered with bounds"):
            _fold(r1.snapshot(), r2.snapshot())

    def test_canonical_order_is_touch_order_independent(self):
        r1 = MetricsRegistry()
        r1.counter("b").inc()
        r1.counter("a").inc()
        r2 = MetricsRegistry()
        r2.counter("a").inc()
        r2.counter("b").inc()
        assert r1.snapshot() == r2.snapshot()

    def test_merge_snapshot_folds_into_live_registry(self):
        worker = MetricsRegistry()
        worker.counter("clips", role="genuine").inc(3)
        worker.histogram("lat", buckets=(1.0,)).observe(0.5)
        parent = MetricsRegistry()
        parent.counter("clips", role="genuine").inc(1)
        parent.merge_snapshot(worker.snapshot())
        snap = parent.snapshot()
        assert snap.counter_value("clips", role="genuine") == 4
        assert snap.get("lat", kind="histogram").count == 1
