"""Metric instruments: counters, gauges, histograms, registry."""

import json

import pytest

from repro.core.errors import ConfigurationError
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_NS,
    Counter,
    Gauge,
    Histogram,
    HistogramSeries,
    MetricsRegistry,
    log_buckets,
)


class TestLogBuckets:
    def test_powers_of_two(self):
        assert log_buckets(64, 1024) == (64, 128, 256, 512, 1024)

    def test_covers_hi_inclusive(self):
        bounds = log_buckets(1, 100, factor=10.0)
        assert bounds[-1] >= 100

    def test_default_latency_buckets_span_six_decades(self):
        assert DEFAULT_LATENCY_BUCKETS_NS[0] == 64
        assert DEFAULT_LATENCY_BUCKETS_NS[-1] == 2**30

    def test_rejects_bad_ranges(self):
        with pytest.raises(ConfigurationError):
            log_buckets(0, 10)
        with pytest.raises(ConfigurationError):
            log_buckets(10, 5)
        with pytest.raises(ConfigurationError):
            log_buckets(1, 10, factor=1.0)


class TestCounter:
    def test_series_are_per_label_set(self):
        counter = Counter("frames_total")
        counter.inc(switch="sw0")
        counter.inc(3, switch="sw1")
        assert counter.value(switch="sw0") == 1
        assert counter.value(switch="sw1") == 3
        assert counter.total() == 4

    def test_labels_returns_same_series(self):
        counter = Counter("c")
        assert counter.labels(a=1) is counter.labels(a=1)

    def test_label_order_is_canonical(self):
        counter = Counter("c")
        counter.labels(a=1, b=2).inc()
        assert counter.value(b=2, a=1) == 1

    def test_monotonic(self):
        counter = Counter("c")
        with pytest.raises(ConfigurationError):
            counter.inc(-1)

    def test_unseen_labels_read_zero(self):
        assert Counter("c").value(switch="nope") == 0


class TestGauge:
    def test_high_water_tracks_max_seen(self):
        gauge = Gauge("queue_depth")
        series = gauge.labels(queue=7)
        series.set(3)
        series.set(9)
        series.set(1)
        assert gauge.value(queue=7) == 1
        assert gauge.high_water(queue=7) == 9

    def test_inc_raises_high_water_dec_does_not(self):
        gauge = Gauge("g")
        series = gauge.labels()
        series.inc(5)
        series.dec(4)
        assert series.value == 1
        assert series.high_water == 5
        series.inc()  # back to 2: below the old high-water
        assert series.high_water == 5

    def test_max_high_water_across_series(self):
        gauge = Gauge("g")
        gauge.set(2, port=0)
        gauge.set(7, port=1)
        gauge.set(1, port=1)
        assert gauge.max_high_water() == 7

    def test_dec_below_zero_is_not_clamped(self):
        """Gauges track signed values: dec past zero must go negative
        (an imbalance a clamp would silently hide)."""
        gauge = Gauge("g")
        series = gauge.labels()
        series.dec(3)
        assert series.value == -3
        series.dec()
        assert series.value == -4
        assert gauge.value() == -4

    def test_dec_never_moves_high_water(self):
        gauge = Gauge("g")
        series = gauge.labels()
        series.set(6)
        series.dec(10)   # value -4
        assert series.value == -4
        assert series.high_water == 6
        series.dec(100)  # far below zero: high-water still untouched
        assert series.high_water == 6

    def test_high_water_of_never_set_series_is_zero(self):
        gauge = Gauge("g")
        series = gauge.labels()
        series.dec(5)
        assert series.high_water == 0
        assert gauge.max_high_water() == 0

    def test_labelless_high_water_in_prometheus_exposition(self):
        from repro.obs.timeseries import prometheus_exposition

        registry = MetricsRegistry()
        gauge = registry.gauge("pool_in_use")
        series = gauge.labels()
        series.set(9)
        series.dec(7)
        text = prometheus_exposition(registry)
        assert "# TYPE pool_in_use gauge" in text
        assert "\npool_in_use 2" in text
        # The high-water companion series must appear for label-less
        # gauges too, with its own TYPE header.
        assert "# TYPE pool_in_use_high_water gauge" in text
        assert "\npool_in_use_high_water 9" in text


class TestHistogram:
    def test_observations_land_in_correct_buckets(self):
        histogram = Histogram("h", buckets=(10, 100, 1000))
        series = histogram.labels()
        series.observe(5)      # <= 10
        series.observe(10)     # boundary: still the first bucket
        series.observe(11)     # <= 100
        series.observe(5000)   # overflow
        snapshot = histogram.snapshot()["series"][0]
        by_bound = {b["le"]: b["count"] for b in snapshot["buckets"]}
        assert by_bound == {10: 2, 100: 1, 1000: 0, "inf": 1}
        assert snapshot["count"] == 4
        assert snapshot["min"] == 5
        assert snapshot["max"] == 5000

    def test_mean_and_sum(self):
        histogram = Histogram("h", buckets=(100,))
        series = histogram.labels()
        for value in (10, 20, 30):
            series.observe(value)
        assert series.sum == 60
        assert series.mean == pytest.approx(20.0)

    def test_quantile_is_bucketed_estimate(self):
        histogram = Histogram("h", buckets=(10, 100, 1000))
        series = histogram.labels()
        for _ in range(99):
            series.observe(5)
        series.observe(500)
        assert series.quantile(0.5) == 10
        assert series.quantile(0.99) == 10
        assert series.quantile(1.0) == 1000

    def test_quantile_overflow_reports_max(self):
        histogram = Histogram("h", buckets=(10,))
        series = histogram.labels()
        series.observe(99)
        assert series.quantile(0.5) == 99

    def test_quantile_empty_is_none(self):
        series = Histogram("h", buckets=(10,)).labels()
        assert series.quantile(0.5) is None

    def test_empty_snapshot_percentiles_all_none(self):
        """A registered-but-never-observed histogram must snapshot with
        every percentile (and min/max) as None, not zero."""
        histogram = Histogram("h", buckets=(10, 100))
        histogram.labels()
        snapshot = histogram.snapshot()["series"][0]
        assert snapshot["count"] == 0
        for key in ("p50", "p95", "p99", "min", "max"):
            assert snapshot[key] is None, key
        assert snapshot["mean"] == 0.0

    def test_snapshot_carries_percentiles(self):
        histogram = Histogram("h", buckets=(10, 100, 1000))
        series = histogram.labels()
        for _ in range(99):
            series.observe(5)
        series.observe(500)
        snapshot = histogram.snapshot()["series"][0]
        assert snapshot["p50"] == 10
        assert snapshot["p95"] == 10
        assert snapshot["p99"] == 10

    def test_empty_snapshot_percentiles_are_none(self):
        histogram = Histogram("h", buckets=(10,))
        histogram.labels()
        snapshot = histogram.snapshot()["series"][0]
        assert snapshot["p50"] is None
        assert snapshot["p99"] is None

    def test_default_buckets_are_log_ns(self):
        histogram = Histogram("h")
        assert histogram.bounds == DEFAULT_LATENCY_BUCKETS_NS

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", buckets=(10, 5))
        with pytest.raises(ConfigurationError):
            Histogram("h", buckets=())


def _scan_bucket(bounds, value):
    """The linear scan ``HistogramSeries`` placed observations with."""
    for index, bound in enumerate(bounds):
        if value <= bound:
            return index
    return len(bounds)


class TestBucketPlacement:
    @pytest.mark.parametrize("bounds", [
        DEFAULT_LATENCY_BUCKETS_NS, (1, 2, 3), (5,), (10, 100, 1000, 10**6),
    ])
    def test_every_value_lands_where_the_scan_put_it(self, bounds):
        values = {0, -1, bounds[-1] + 1, bounds[-1] * 2, 10**15}
        for bound in bounds:
            values |= {bound - 1, bound, bound + 1}
        for value in sorted(values):
            series = HistogramSeries(bounds)
            series.observe(value)
            assert series.bucket_counts.index(1) == _scan_bucket(
                bounds, value
            ), value
            assert sum(series.bucket_counts) == 1


class TestMetricsRegistry:
    def test_same_name_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ConfigurationError):
            registry.gauge("x")

    def test_contains_get_iter(self):
        registry = MetricsRegistry()
        registry.gauge("b")
        registry.counter("a")
        assert "a" in registry and "c" not in registry
        assert registry.get("b").kind == "gauge"
        assert [i.name for i in registry] == ["a", "b"]

    def test_snapshot_round_trips_through_json(self):
        registry = MetricsRegistry()
        registry.counter("frames").inc(2, switch="sw0")
        registry.gauge("depth").set(4, queue=1)
        registry.histogram("lat", buckets=(100,)).observe(50, flow=3)
        snapshot = json.loads(registry.to_json())
        assert snapshot["frames"]["kind"] == "counter"
        assert snapshot["frames"]["series"][0] == {
            "labels": {"switch": "sw0"}, "value": 2,
        }
        assert snapshot["depth"]["series"][0]["high_water"] == 4
        assert snapshot["lat"]["series"][0]["labels"] == {"flow": "3"}
