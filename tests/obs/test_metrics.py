"""Tests for the metrics registry: counters, gauges, histograms, labels."""

import math

import pytest

from repro import obs
from repro.obs import metrics


@pytest.fixture()
def on():
    obs.reset()
    obs.enable()
    yield
    obs.reset()


class TestCounter:
    def test_inc_and_value(self, on):
        c = metrics.counter("test.count")
        c.inc()
        c.inc(2.0)
        assert c.value() == 3.0

    def test_labels_split_series(self, on):
        c = metrics.counter("test.by_kind")
        c.inc(kind="alert")
        c.inc(kind="alert")
        c.inc(kind="heartbeat")
        assert c.value(kind="alert") == 2.0
        assert c.value(kind="heartbeat") == 1.0
        assert c.total() == 3.0

    def test_label_order_insensitive(self, on):
        c = metrics.counter("test.pairs")
        c.inc(a=1, b=2)
        assert c.value(b=2, a=1) == 1.0

    def test_negative_increment_rejected(self, on):
        with pytest.raises(ValueError):
            metrics.counter("test.neg").inc(-1.0)

    def test_noop_when_disabled(self):
        obs.reset()
        c = metrics.counter("test.off")
        c.inc(100.0)
        assert c.value() == 0.0

    def test_registry_get_or_create_returns_same(self, on):
        assert metrics.counter("test.same") is metrics.counter("test.same")

    def test_type_clash_rejected(self, on):
        metrics.counter("test.clash")
        with pytest.raises(TypeError):
            metrics.gauge("test.clash")


class TestGauge:
    def test_set_and_add(self, on):
        g = metrics.gauge("test.depth")
        g.set(5.0)
        g.add(2.0)
        assert g.value() == 7.0

    def test_unset_is_none(self, on):
        assert metrics.gauge("test.unset").value() is None

    def test_noop_when_disabled(self):
        obs.reset()
        g = metrics.gauge("test.off_gauge")
        g.set(9.0)
        assert g.value() is None


class TestHistogram:
    def test_count_and_sum(self, on):
        h = metrics.histogram("test.lat")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        assert h.count() == 3
        assert h.sum() == pytest.approx(6.0)

    def test_percentiles(self, on):
        h = metrics.histogram("test.pct")
        for v in range(1, 101):          # 1..100
            h.observe(float(v))
        assert h.percentile(50.0) == pytest.approx(50.5)
        assert h.percentile(0.0) == 1.0
        assert h.percentile(100.0) == 100.0
        assert h.percentile(95.0) == pytest.approx(95.05)

    def test_percentile_on_a_sample_next_to_infinity(self, on):
        h = metrics.histogram("test.inf")
        h.observe(1.0)
        h.observe(math.inf)
        assert h.percentile(0.0) == 1.0
        assert h.percentile(100.0) == math.inf

    def test_percentile_empty_is_nan(self, on):
        h = metrics.histogram("test.empty")
        assert math.isnan(h.percentile(50.0))

    def test_percentile_out_of_range(self, on):
        with pytest.raises(ValueError):
            metrics.histogram("test.range").percentile(101.0)

    def test_reservoir_caps_values_but_not_count(self, on):
        h = metrics.histogram("test.cap")
        cap = metrics._HistogramSeries.CAP
        for v in range(cap + 50):
            h.observe(float(v))
        series = h._series[()]
        assert series.count == cap + 50
        assert len(series.values) == cap
        assert series.max == float(cap + 49)

    def test_noop_when_disabled(self):
        obs.reset()
        h = metrics.histogram("test.off_hist")
        h.observe(1.0)
        assert h.count() == 0


class TestRegistryReset:
    def test_reset_between_tests(self, on):
        metrics.counter("test.reset_me").inc()
        assert "test.reset_me" in metrics.registry.names()
        metrics.registry.reset()
        assert metrics.registry.names() == []

    def test_obs_reset_clears_and_disables(self, on):
        metrics.counter("test.reset_all").inc()
        obs.reset()
        assert not obs.enabled()
        assert metrics.registry.names() == []

    def test_snapshot_shape(self, on):
        metrics.counter("test.snap", "help text").inc(kind="x")
        snap = metrics.registry.snapshot()
        assert snap["test.snap"]["type"] == "counter"
        assert snap["test.snap"]["series"] == [
            {"labels": {"kind": "x"}, "value": 1.0}
        ]
