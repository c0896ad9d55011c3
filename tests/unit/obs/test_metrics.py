"""Unit tests for repro.obs.metrics."""

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_buckets,
)


class TestCounterGauge:
    def test_counter_accumulates(self):
        c = Counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_gauge_set_inc_dec(self):
        g = Gauge("g")
        g.set(10)
        g.inc(5)
        g.inc(-3)
        assert g.value == 12


class TestHistogram:
    def test_exact_stats(self):
        h = Histogram("h")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert h.count == 4
        assert h.total == 10.0
        assert h.min == 1.0
        assert h.max == 4.0
        assert h.mean == 2.5

    def test_percentiles_uniform_fine_buckets(self):
        # Unit-width buckets 0..1000: percentile interpolation over a
        # uniform stream must land within one bucket of the true value.
        h = Histogram("h", bounds=tuple(float(i) for i in range(1001)))
        for v in range(1, 1001):
            h.observe(float(v))
        assert h.percentile(50) == pytest.approx(500, abs=1.0)
        assert h.percentile(90) == pytest.approx(900, abs=1.0)
        assert h.percentile(99) == pytest.approx(990, abs=1.0)
        assert h.percentile(0) == pytest.approx(1.0, abs=1.0)
        assert h.percentile(100) == 1000.0

    def test_percentiles_clamped_to_observed_range(self):
        # One coarse bucket [0, 1000]: interpolation may not leave [min, max].
        h = Histogram("h", bounds=(1000.0,))
        h.observe(10.0)
        h.observe(20.0)
        assert 10.0 <= h.percentile(50) <= 20.0

    def test_single_observation(self):
        h = Histogram("h")
        h.observe(42.0)
        for p in (0, 50, 99, 100):
            assert h.percentile(p) == pytest.approx(42.0, rel=0.25)

    def test_overflow_bucket(self):
        h = Histogram("h", bounds=(1.0, 2.0))
        h.observe(100.0)
        assert h.bucket_counts[-1] == 1
        assert h.percentile(100) == 100.0

    def test_empty_snapshot(self):
        snap = Histogram("h").snapshot()
        assert snap["count"] == 0
        assert snap["p99"] == 0.0

    def test_snapshot_keys(self):
        h = Histogram("h")
        h.observe(1.0)
        assert set(h.snapshot()) == {
            "count", "sum", "min", "max", "mean", "p50", "p90", "p99"
        }

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=())
        with pytest.raises(ValueError):
            Histogram("h", bounds=(2.0, 1.0))

    def test_invalid_percentile(self):
        with pytest.raises(ValueError):
            Histogram("h").percentile(101)

    def test_default_buckets_cover_wide_range(self):
        b = default_buckets()
        assert b[0] <= 1e-9
        assert b[-1] >= 1e9
        assert all(x < y for x, y in zip(b, b[1:]))


class TestExportMerge:
    """The worker -> parent merge path used by the parallel sweep engine."""

    def test_histogram_round_trip_preserves_exact_stats(self):
        src = Histogram("h")
        for v in (0.5, 1.5, 7.0):
            src.observe(v)
        dst = Histogram("h")
        dst.merge_state(src.export_state())
        assert dst.count == 3
        assert dst.total == 9.0
        assert dst.min == 0.5 and dst.max == 7.0
        assert dst.bucket_counts == src.bucket_counts

    def test_histogram_merge_accumulates(self):
        a = Histogram("h", bounds=(1.0, 10.0))
        b = Histogram("h", bounds=(1.0, 10.0))
        a.observe(0.5)
        b.observe(5.0)
        b.observe(100.0)
        a.merge_state(b.export_state())
        assert a.count == 3
        assert a.min == 0.5 and a.max == 100.0
        assert a.bucket_counts == [1, 1, 1]

    def test_histogram_merge_rejects_mismatched_bounds(self):
        a = Histogram("h", bounds=(1.0, 2.0))
        b = Histogram("h", bounds=(1.0, 3.0))
        b.observe(1.5)
        with pytest.raises(ValueError, match="mismatched bucket bounds"):
            a.merge_state(b.export_state())

    def test_empty_histogram_merge_is_a_noop(self):
        a = Histogram("h")
        a.observe(2.0)
        a.merge_state(Histogram("h").export_state())
        assert a.count == 1 and a.min == 2.0

    def test_registry_merge_semantics(self):
        """Counters add, gauges last-write-win, histograms accumulate."""
        parent = MetricsRegistry()
        parent.counter("jobs").inc(2)
        parent.gauge("depth").set(1.0)
        parent.histogram("lat").observe(1.0)

        worker = MetricsRegistry()
        worker.counter("jobs").inc(3)
        worker.counter("worker_only").inc(1)
        worker.gauge("depth").set(9.0)
        worker.histogram("lat").observe(3.0)

        parent.merge_state(worker.export_state())
        assert parent.counter("jobs").value == 5
        assert parent.counter("worker_only").value == 1
        assert parent.gauge("depth").value == 9.0
        assert parent.histogram("lat").count == 2

    def test_registry_export_state_is_json_serializable(self):
        import json

        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.histogram("h").observe(1.0)
        state = reg.export_state()
        assert set(state) == {"counters", "gauges", "histograms"}
        restored = json.loads(json.dumps(state))
        fresh = MetricsRegistry()
        fresh.merge_state(restored)
        assert fresh.counter("c").value == 1
        assert fresh.histogram("h").count == 1


class TestRegistry:
    def test_get_or_create_identity(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_type_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_as_dict_shapes(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(2.0)
        snap = reg.as_dict()
        assert snap["c"] == 3
        assert snap["g"] == 1.5
        assert isinstance(snap["h"], dict) and snap["h"]["count"] == 1

    def test_as_dict_sorted(self):
        reg = MetricsRegistry()
        reg.counter("zz")
        reg.counter("aa")
        assert list(reg.as_dict()) == ["aa", "zz"]
        assert "zz" in reg and len(reg) == 2
