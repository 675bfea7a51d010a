"""Tests for cluster measurement primitives."""

import math

import pytest

from repro.cluster.metrics import (
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
    TimeSeriesRecorder,
    skew_ratio,
)


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("c").get() == 0.0

    def test_increment(self):
        c = Counter("c")
        c.inc()
        c.inc(2.5)
        assert c.get() == 3.5

    def test_labels_accumulate_independently(self):
        c = Counter("c")
        c.inc(1, label="a")
        c.inc(2, label="b")
        c.inc(3, label="a")
        assert c.get("a") == 4
        assert c.get("b") == 2
        assert c.get() == 6
        assert c.labels() == {"a": 4, "b": 2}

    def test_unknown_label_is_zero(self):
        assert Counter("c").get("nope") == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)


class TestGauge:
    def test_set_and_watermarks(self):
        g = Gauge("g")
        g.set(5.0)
        g.set(2.0)
        g.set(8.0)
        assert g.value == 8.0
        assert g.max_value == 8.0
        assert g.min_value == 2.0

    def test_untouched_watermarks_are_zero_not_inf(self):
        # Regression: a never-set gauge used to report max=-inf/min=+inf.
        g = Gauge("g")
        assert g.max_value == 0.0
        assert g.min_value == 0.0
        assert not math.isinf(g.max_value)

    def test_first_set_initialises_both_watermarks(self):
        g = Gauge("g")
        g.set(-3.0)
        assert g.max_value == -3.0
        assert g.min_value == -3.0


class TestTimeSeriesRecorder:
    def test_records_in_order(self):
        ts = TimeSeriesRecorder("s")
        ts.record(0.0, 1.0)
        ts.record(1.0, 2.0)
        assert len(ts) == 2
        assert ts.last() == (1.0, 2.0)

    def test_out_of_order_rejected(self):
        ts = TimeSeriesRecorder("s")
        ts.record(2.0, 1.0)
        with pytest.raises(ValueError):
            ts.record(1.0, 2.0)

    def test_last_empty_raises(self):
        with pytest.raises(IndexError):
            TimeSeriesRecorder("s").last()

    def test_resample_step_function(self):
        ts = TimeSeriesRecorder("s")
        ts.record(0.4, 10.0)
        ts.record(1.2, 20.0)
        ts.record(2.0, 30.0)
        grid = ts.resample(1.0)
        assert grid == [(0.0, 0.0), (1.0, 10.0), (2.0, 30.0)]

    def test_resample_until_extends(self):
        ts = TimeSeriesRecorder("s")
        ts.record(0.0, 5.0)
        grid = ts.resample(1.0, until=3.0)
        assert grid == [(0.0, 5.0), (1.0, 5.0), (2.0, 5.0), (3.0, 5.0)]

    def test_resample_empty(self):
        assert TimeSeriesRecorder("s").resample(1.0) == []

    def test_resample_invalid_step(self):
        with pytest.raises(ValueError):
            TimeSeriesRecorder("s").resample(0.0)

    def test_rate(self):
        ts = TimeSeriesRecorder("s")
        ts.record(0.0, 0.0)
        ts.record(2.0, 100.0)
        assert ts.rate() == 50.0

    def test_rate_degenerate(self):
        ts = TimeSeriesRecorder("s")
        assert ts.rate() == 0.0
        ts.record(1.0, 5.0)
        assert ts.rate() == 0.0


class TestLatencyHistogram:
    def test_observe_and_mean(self):
        h = LatencyHistogram("h")
        for v in (0.001, 0.002, 0.003):
            h.observe(v)
        assert h.count == 3
        assert h.mean == pytest.approx(0.002)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram("h").observe(-0.1)

    def test_quantile_bounds(self):
        h = LatencyHistogram("h")
        with pytest.raises(ValueError):
            h.quantile(1.5)
        assert h.quantile(0.5) == 0.0  # empty

    def test_quantile_monotone(self):
        h = LatencyHistogram("h")
        for i in range(1, 101):
            h.observe(i / 1000.0)
        assert h.quantile(0.5) <= h.quantile(0.9) <= h.quantile(0.99)

    def test_overflow_bucket(self):
        h = LatencyHistogram("h", bounds=(0.001,))
        h.observe(10.0)
        assert h.buckets[-1] == 1
        assert h.max_seen == 10.0

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram("h", bounds=(0.5, 0.1))

    def test_quantile_zero_skips_empty_leading_buckets(self):
        # Regression: acc >= target with target == 0 returned bounds[0]
        # even when every observation landed in a later bucket.
        h = LatencyHistogram("h", bounds=(0.001, 0.01, 0.1))
        h.observe(0.05)  # second-to-last bucket only
        assert h.quantile(0.0) == 0.1
        assert h.quantile(0.0) != h.bounds[0]

    def test_quantile_one_is_largest_occupied_bound(self):
        h = LatencyHistogram("h", bounds=(0.001, 0.01, 0.1))
        h.observe(0.0005)
        h.observe(0.05)
        assert h.quantile(1.0) == 0.1

    def test_quantile_single_bucket(self):
        h = LatencyHistogram("h", bounds=(0.001, 0.01, 0.1))
        for _ in range(10):
            h.observe(0.005)
        # All mass in one bucket: every quantile is that bucket's bound.
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert h.quantile(q) == 0.01

    def test_quantile_overflow_bucket_uses_max_seen(self):
        h = LatencyHistogram("h", bounds=(0.001,))
        h.observe(7.5)
        assert h.quantile(0.0) == 7.5
        assert h.quantile(1.0) == 7.5


class TestRegistry:
    def test_same_name_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")


class TestSkewRatio:
    def test_balanced_is_one(self):
        assert skew_ratio([5, 5, 5, 5]) == 1.0

    def test_single_hot_shard(self):
        assert skew_ratio([100, 0, 0, 0]) == 4.0

    def test_empty_raises(self):
        # Regression: empty input used to return nan, indistinguishable
        # from the legitimate all-zero "no load yet" case.
        with pytest.raises(ValueError):
            skew_ratio([])

    def test_all_zero_is_nan(self):
        assert math.isnan(skew_ratio([0, 0]))
