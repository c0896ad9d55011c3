"""Unit tests for repro.obs.expose: Prometheus text, and the one
``metrics_out`` write at the end of a run."""

import json

import pytest

from repro.api.facade import _telemetry_run
from repro.obs.export import load_run
from repro.obs.expose import _sanitize_metric_name, render_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SloObjective, SloSpec


def _registry():
    reg = MetricsRegistry()
    reg.counter("service.jobs_completed").inc(3)
    reg.gauge("service.queue_depth").set(2)
    h = reg.histogram("service.latency_s", (0.1, 1.0),
                      {"stage": "encode", "config": "fe_op"})
    h.observe(0.05)
    h.observe(0.5)
    h.observe(5.0)
    return reg


class TestRenderPrometheus:
    def test_name_sanitization(self):
        assert _sanitize_metric_name("service.queue_depth") == \
            "repro_service_queue_depth"
        assert _sanitize_metric_name("9lives") == "repro__9lives"

    def test_counter_gauge_lines(self):
        text = render_prometheus(_registry())
        assert "# TYPE repro_service_jobs_completed_total counter" in text
        assert "repro_service_jobs_completed_total 3" in text
        assert "# TYPE repro_service_queue_depth gauge" in text
        assert "repro_service_queue_depth 2" in text

    def test_histogram_buckets_cumulative_with_labels(self):
        lines = render_prometheus(_registry()).splitlines()
        bucket_lines = [l for l in lines
                        if l.startswith("repro_service_latency_s_bucket")]
        # Labels are carried through and le added; counts are cumulative.
        assert bucket_lines == [
            'repro_service_latency_s_bucket{config="fe_op",stage="encode",le="0.1"} 1',
            'repro_service_latency_s_bucket{config="fe_op",stage="encode",le="1"} 2',
            'repro_service_latency_s_bucket{config="fe_op",stage="encode",le="+Inf"} 3',
        ]
        assert ('repro_service_latency_s_count{config="fe_op",stage="encode"} 3'
                in lines)

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""


class TestMetricsOut:
    """``metrics_out`` is written once, when the run's body ends."""

    @staticmethod
    def _spec_file(tmp_path):
        spec = SloSpec(name="t", objectives=(
            SloObjective(name="errs", kind="error_rate",
                         bad="service.jobs_failed",
                         total="service.jobs_completed", max_rate=0.5),
        ))
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_payload()))
        return path

    def test_metrics_prom_is_the_final_registry(self, tmp_path):
        out = tmp_path / "metrics"
        with _telemetry_run("serve", "smart", None, metrics_out=out) as run:
            run.tel.metrics.counter("service.jobs_completed").inc(3)
            run.tel.metrics.counter("service.jobs_completed").inc()
            expected = render_prometheus(run.tel.metrics)
        prom = (out / "metrics.prom").read_text()
        assert "repro_service_jobs_completed_total 4" in prom
        assert prom == expected
        # No spec, no verdict; and no per-tick log.
        assert sorted(p.name for p in out.iterdir()) == ["metrics.prom"]

    def test_slo_json_is_the_verdict_in_run_json(self, tmp_path):
        out, tel_dir = tmp_path / "metrics", tmp_path / "tel"
        with _telemetry_run("serve", "smart", tel_dir,
                            self._spec_file(tmp_path), out) as run:
            run.tel.metrics.counter("service.jobs_completed").inc(3)
        doc = json.loads((out / "slo.json").read_text())
        assert doc["spec"] == "t"
        assert doc["ok"] is True
        assert doc == load_run(tel_dir / "run.json")["slo"]

    def test_a_body_that_raises_still_writes_both_files(self, tmp_path):
        out = tmp_path / "metrics"
        with pytest.raises(RuntimeError, match="boom"):
            with _telemetry_run("serve", "smart", None,
                                self._spec_file(tmp_path), out) as run:
                run.tel.metrics.counter("service.jobs_completed").inc()
                raise RuntimeError("boom")
        assert "repro_service_jobs_completed_total 1" in (
            out / "metrics.prom").read_text()
        assert json.loads((out / "slo.json").read_text())["ok"] is True
