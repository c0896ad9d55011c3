"""Unit tests for the labeled-series dimension of repro.obs.metrics."""

import pytest

from repro.obs.metrics import (
    MetricsRegistry,
    label_key,
    latency_buckets,
    parse_label_key,
)


class TestLabelKeys:
    def test_key_sorts_labels(self):
        key = label_key("m", {"b": "2", "a": "1"})
        assert key == 'm{a="1",b="2"}'

    def test_round_trip(self):
        labels = {"stage": "encode", "config": "fe_op"}
        name, parsed = parse_label_key(label_key("m", labels))
        assert name == "m"
        assert parsed == labels

    def test_round_trip_with_escapes(self):
        labels = {"msg": 'a"b\\c\nd'}
        name, parsed = parse_label_key(label_key("m", labels))
        assert parsed == labels

    def test_unlabeled_key_is_bare_name(self):
        assert label_key("m", {}) == "m"
        assert parse_label_key("m") == ("m", {})


class TestLatencyBuckets:
    def test_span_microseconds_to_minutes(self):
        buckets = latency_buckets()
        assert buckets[0] == pytest.approx(1e-6)
        assert buckets[-1] >= 300.0          # minutes of tail headroom
        assert list(buckets) == sorted(buckets)

    def test_one_two_five_ladder(self):
        buckets = latency_buckets()
        assert 1e-3 in buckets and 2e-3 in buckets and 5e-3 in buckets


class TestLabeledRegistry:
    def test_labeled_series_are_distinct(self):
        reg = MetricsRegistry()
        reg.counter("jobs", {"config": "a"}).inc(1)
        reg.counter("jobs", {"config": "b"}).inc(2)
        reg.counter("jobs").inc(4)
        flat = reg.as_dict()
        assert flat['jobs{config="a"}'] == 1
        assert flat['jobs{config="b"}'] == 2
        assert flat["jobs"] == 4

    def test_series_lists_family(self):
        reg = MetricsRegistry()
        reg.counter("jobs", {"config": "a"}).inc()
        reg.counter("jobs", {"config": "b"}).inc()
        reg.counter("other").inc()
        family = reg.series("jobs")
        assert len(family) == 2
        assert {m.labels["config"] for m in family} == {"a", "b"}

    def test_merge_state_preserves_labels(self):
        worker = MetricsRegistry()
        worker.counter("jobs", {"config": "a"}).inc(3)
        worker.histogram("lat", latency_buckets(),
                         {"stage": "encode"}).observe(0.5)
        parent = MetricsRegistry()
        parent.counter("jobs", {"config": "a"}).inc(1)
        parent.merge_state(worker.export_state())
        flat = parent.as_dict()
        assert flat['jobs{config="a"}'] == 4
        assert flat['lat{stage="encode"}']["count"] == 1

    def test_unlabeled_export_shape_unchanged(self):
        """Pre-existing consumers read histogram state without a labels
        key; only labeled series carry one."""
        reg = MetricsRegistry()
        reg.histogram("plain").observe(1.0)
        reg.histogram("tagged", None, {"k": "v"}).observe(1.0)
        state = reg.export_state()["histograms"]
        assert "labels" not in state["plain"]
        assert state['tagged{k="v"}']["labels"] == {"k": "v"}
