"""Metrics registry tests: counters, gauges, histogram bucket semantics."""

import threading

import pytest

from repro.errors import TracError
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    histogram_quantile,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_starts_at_zero_and_increments(self, registry):
        c = registry.counter("hits")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self, registry):
        c = registry.counter("hits")
        with pytest.raises(TracError):
            c.inc(-1)
        assert c.value == 0.0


class TestGauge:
    def test_set_moves_both_ways(self, registry):
        g = registry.gauge("backlog")
        g.set(10)
        g.set(13)
        assert g.value == 13.0
        g.set(2)
        assert g.value == 2.0


class TestHistogramBuckets:
    def test_value_at_bound_counts_in_that_bucket(self, registry):
        h = registry.histogram("h", buckets=(1.0, 2.0, 4.0))
        h.observe(1.0)  # exactly the first bound: <= 1.0
        assert h.bucket_counts() == [
            (1.0, 1),
            (2.0, 1),
            (4.0, 1),
            (float("inf"), 1),
        ]

    def test_cumulative_counts(self, registry):
        h = registry.histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 100.0):
            h.observe(value)
        assert h.bucket_counts() == [
            (1.0, 1),  # 0.5
            (2.0, 2),  # + 1.5
            (4.0, 3),  # + 3.0
            (float("inf"), 4),  # + 100.0 (beyond every finite bound)
        ]

    def test_just_above_bound_falls_into_next(self, registry):
        h = registry.histogram("h", buckets=(1.0, 2.0))
        h.observe(1.0000001)
        assert h.bucket_counts() == [(1.0, 0), (2.0, 1), (float("inf"), 1)]

    def test_sum_count_mean(self, registry):
        h = registry.histogram("h", buckets=(10.0,))
        assert h.mean == 0.0
        h.observe(2.0)
        h.observe(4.0)
        assert h.count == 2
        assert h.sum == 6.0
        assert h.mean == 3.0

    def test_default_buckets_are_increasing(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
        assert len(set(DEFAULT_BUCKETS)) == len(DEFAULT_BUCKETS)

    def test_empty_bounds_rejected(self, registry):
        with pytest.raises(TracError):
            registry.histogram("bad", buckets=())

    def test_non_increasing_bounds_rejected(self, registry):
        with pytest.raises(TracError):
            registry.histogram("bad", buckets=(1.0, 1.0, 2.0))
        with pytest.raises(TracError):
            registry.histogram("bad2", buckets=(2.0, 1.0))


class TestRegistry:
    def test_creation_is_idempotent(self, registry):
        a = registry.counter("hits", {"backend": "sqlite"})
        b = registry.counter("hits", {"backend": "sqlite"})
        assert a is b
        assert len(registry) == 1

    def test_label_order_does_not_matter(self, registry):
        a = registry.counter("hits", {"a": "1", "b": "2"})
        b = registry.counter("hits", {"b": "2", "a": "1"})
        assert a is b

    def test_distinct_label_sets_are_distinct_series(self, registry):
        a = registry.counter("hits", {"backend": "sqlite"})
        b = registry.counter("hits", {"backend": "memory"})
        assert a is not b
        a.inc()
        assert b.value == 0.0

    def test_kind_conflict_raises(self, registry):
        registry.counter("hits")
        with pytest.raises(TracError):
            registry.gauge("hits")
        with pytest.raises(TracError):
            registry.histogram("hits")
        # Same name + different labels still conflicts across kinds.
        with pytest.raises(TracError):
            registry.gauge("hits", {"x": "y"})

    def test_collect_sorted_by_name_then_labels(self, registry):
        registry.counter("z_metric")
        registry.counter("a_metric", {"l": "2"})
        registry.counter("a_metric", {"l": "1"})
        collected = registry.collect()
        assert [(i.name, i.labels) for i in collected] == [
            ("a_metric", (("l", "1"),)),
            ("a_metric", (("l", "2"),)),
            ("z_metric", ()),
        ]

    def test_help_text_first_writer_wins(self, registry):
        registry.counter("c", help="first")
        registry.counter("c", help="second")
        assert registry.help_text("c") == "first"
        assert registry.help_text("unknown") is None

    def test_reset_empties_registry(self, registry):
        registry.counter("c").inc()
        registry.reset()
        assert len(registry) == 0
        assert registry.collect() == []
        # Re-registering after reset starts fresh.
        assert registry.counter("c").value == 0.0

    def test_instrument_kinds(self, registry):
        assert isinstance(registry.counter("c"), Counter)
        assert isinstance(registry.gauge("g"), Gauge)
        assert isinstance(registry.histogram("h"), Histogram)


class TestThreadSafety:
    def test_concurrent_updates_do_not_lose_counts(self, registry):
        c = registry.counter("hits")
        h = registry.histogram("lat", buckets=(0.5, 1.0))

        def worker():
            for _ in range(1000):
                c.inc()
                h.observe(0.25)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert c.value == 2000.0
        assert h.count == 2000
        assert h.bucket_counts()[0] == (0.5, 2000)


class TestHistogramQuantile:
    """histogram_quantile: the serving p99 math, Prometheus-style."""

    def make_buckets(self, observations, bounds=(0.1, 0.5, 1.0)):
        h = Histogram("t", (), threading.Lock(), bounds)
        for value in observations:
            h.observe(value)
        return h.bucket_counts()

    def test_interpolates_within_a_bucket(self):
        # 10 samples all in (0.1, 0.5]: p50 lands mid-bucket.
        buckets = self.make_buckets([0.3] * 10)
        assert histogram_quantile(buckets, 0.5) == pytest.approx(0.3)

    def test_spans_buckets(self):
        buckets = self.make_buckets([0.05] * 50 + [0.4] * 50)
        assert histogram_quantile(buckets, 0.25) == pytest.approx(0.05)
        assert histogram_quantile(buckets, 0.75) == pytest.approx(0.3)

    def test_overflow_bucket_returns_last_finite_bound(self):
        buckets = self.make_buckets([5.0] * 10)  # all beyond the 1.0 bound
        assert histogram_quantile(buckets, 0.99) == pytest.approx(1.0)

    def test_empty_and_zero_total_return_none(self):
        assert histogram_quantile([], 0.5) is None
        assert histogram_quantile(self.make_buckets([]), 0.5) is None

    def test_quantile_out_of_range_raises(self):
        buckets = self.make_buckets([0.2])
        with pytest.raises(TracError):
            histogram_quantile(buckets, 1.5)
        with pytest.raises(TracError):
            histogram_quantile(buckets, -0.1)
