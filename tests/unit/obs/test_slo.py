"""Unit tests for repro.obs.slo: spec validation and evaluation."""

import json
import re

import pytest

from repro.obs.metrics import MetricsRegistry, latency_buckets
from repro.obs.slo import (
    ObjectiveResult,
    SloObjective,
    SloReport,
    SloSpec,
    evaluate_slo,
    load_slo_spec,
)


def _latency(name="p99", metric="svc.latency_s", labels=None,
             percentile=99.0, threshold_s=1.0):
    return SloObjective(
        name=name, kind="latency", metric=metric,
        labels=labels or {}, percentile=percentile,
        threshold_s=threshold_s,
    )


def _registry_with_latency(values, labels=None):
    reg = MetricsRegistry()
    h = reg.histogram("svc.latency_s", latency_buckets(), labels)
    for v in values:
        h.observe(v)
    return reg


class TestObjectiveValidation:
    def test_latency_needs_metric(self):
        with pytest.raises(ValueError):
            SloObjective(name="x", kind="latency", threshold_s=1.0)

    def test_latency_rejects_unsnapshotted_percentile(self):
        with pytest.raises(ValueError):
            _latency(percentile=95.0)

    def test_latency_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            _latency(threshold_s=0.0)

    def test_error_rate_needs_bad_and_total(self):
        with pytest.raises(ValueError):
            SloObjective(name="x", kind="error_rate", max_rate=0.1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SloObjective(name="x", kind="availability")

    def test_payload_round_trip(self):
        obj = _latency(labels={"stage": "encode"})
        assert SloObjective.from_payload(obj.to_payload()) == obj

    def test_payload_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            SloObjective.from_payload(
                {"name": "x", "kind": "latency", "metric": "m",
                 "threshold_s": 1.0, "window": "30d"}
            )


class TestSpecValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SloSpec(name="s", objectives=())

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            SloSpec(name="s", objectives=(_latency(), _latency()))

    def test_load_spec_file(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps({
            "name": "t",
            "objectives": [_latency().to_payload()],
        }))
        spec = load_slo_spec(path)
        assert spec.name == "t"
        assert spec.objectives[0].name == "p99"

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text("{nope")
        with pytest.raises(ValueError):
            load_slo_spec(path)


class TestEvaluation:
    def test_latency_pass_and_breach(self):
        spec = SloSpec(name="s", objectives=(_latency(threshold_s=10.0),))
        reg = _registry_with_latency([0.1, 0.2, 0.3])
        assert evaluate_slo(spec, reg.as_dict()).ok

        tight = SloSpec(name="s", objectives=(_latency(threshold_s=0.05),))
        report = evaluate_slo(tight, reg.as_dict())
        assert not report.ok
        assert report.breached == ("p99",)

    def test_latency_label_superset_matching(self):
        """An objective's labels select every series carrying at least
        those labels; the worst matching series decides the verdict."""
        reg = MetricsRegistry()
        fast = reg.histogram("svc.latency_s", latency_buckets(),
                             {"stage": "encode", "config": "fe_op"})
        slow = reg.histogram("svc.latency_s", latency_buckets(),
                             {"stage": "encode", "config": "bs_op"})
        for _ in range(5):
            fast.observe(0.01)
            slow.observe(5.0)
        spec = SloSpec(name="s", objectives=(
            _latency(labels={"stage": "encode"}, threshold_s=1.0),
        ))
        report = evaluate_slo(spec, reg.as_dict())
        assert not report.ok                      # slow config breaches
        assert report.results[0].actual > 1.0

    def test_latency_vacuous_pass_without_samples(self):
        spec = SloSpec(name="s", objectives=(_latency(),))
        assert evaluate_slo(spec, {}).ok

    def test_error_rate(self):
        obj = SloObjective(name="errs", kind="error_rate",
                           bad="svc.errors", total="svc.requests",
                           max_rate=0.05)
        spec = SloSpec(name="s", objectives=(obj,))
        ok = evaluate_slo(spec, {"svc.errors": 1.0, "svc.requests": 100.0})
        assert ok.ok
        bad = evaluate_slo(spec, {"svc.errors": 10.0, "svc.requests": 100.0})
        assert not bad.ok
        assert bad.results[0].actual == pytest.approx(0.10)
        assert bad.results[0].burn_rate == pytest.approx(2.0)

    def test_error_rate_vacuous_pass_with_zero_total(self):
        obj = SloObjective(name="errs", kind="error_rate",
                           bad="svc.errors", total="svc.requests",
                           max_rate=0.05)
        spec = SloSpec(name="s", objectives=(obj,))
        assert evaluate_slo(spec, {}).ok

    def test_deadline_miss_rate_reads_service_counters(self):
        obj = SloObjective(name="deadlines", kind="deadline_miss_rate",
                           max_rate=0.25)
        spec = SloSpec(name="s", objectives=(obj,))
        ok = evaluate_slo(spec, {"service.deadline_misses": 1.0,
                                 "service.jobs_with_deadline": 8.0})
        assert ok.ok
        bad = evaluate_slo(spec, {"service.deadline_misses": 4.0,
                                  "service.jobs_with_deadline": 8.0})
        assert not bad.ok

    def test_burn_rate_capped_and_json_safe(self):
        obj = SloObjective(name="errs", kind="error_rate",
                           bad="b", total="t", max_rate=0.0)
        spec = SloSpec(name="s", objectives=(obj,))
        report = evaluate_slo(spec, {"b": 5.0, "t": 10.0})
        payload = report.to_payload()
        text = json.dumps(payload)          # must not emit Infinity
        assert json.loads(text)["objectives"][0]["burn_rate"] <= 1e9

    def test_report_render_and_payload(self):
        spec = SloSpec(name="s", objectives=(_latency(threshold_s=10.0),))
        reg = _registry_with_latency([0.1])
        report = evaluate_slo(spec, reg.as_dict())
        assert "p99" in report.render()
        payload = report.to_payload()
        assert payload["spec"] == "s"
        assert payload["ok"] is True
        assert payload["breached"] == []

    def test_same_verdict_live_and_snapshot(self):
        """Evaluating the live registry and its as_dict snapshot must
        agree — the CI gate re-checks exported run.json artifacts."""
        reg = _registry_with_latency([0.1, 0.9], {"stage": "encode"})
        reg.counter("svc.errors").inc(2)
        reg.counter("svc.requests").inc(100)
        spec = SloSpec(name="s", objectives=(
            _latency(labels={"stage": "encode"}, threshold_s=1.0),
            SloObjective(name="errs", kind="error_rate", bad="svc.errors",
                         total="svc.requests", max_rate=0.05),
        ))
        live = evaluate_slo(spec, reg.as_dict())
        snapshot = evaluate_slo(
            spec, json.loads(json.dumps(reg.as_dict()))
        )
        assert live.to_payload() == snapshot.to_payload()


class TestReportPayload:
    """``SloReport.from_payload`` inverts ``to_payload``: ``repro report``
    prints the ``slo`` section of run.json through it."""

    REPORT = SloReport(spec_name="gate", results=(
        ObjectiveResult(name="encode-p99", kind="latency", ok=True,
                        actual=0.25, target=1.0, burn_rate=0.25,
                        budget_remaining=0.75, detail="p99 of 1 series"),
        ObjectiveResult(name="requeue-rate", kind="error_rate", ok=False,
                        actual=0.2, target=0.03, burn_rate=6.67,
                        budget_remaining=-5.67, detail="bad / total"),
    ))

    def test_round_trip(self):
        payload = self.REPORT.to_payload()
        assert payload["ok"] is False
        assert payload["breached"] == ["requeue-rate"]
        assert SloReport.from_payload(payload) == self.REPORT
        assert SloReport.from_payload(
            json.loads(json.dumps(payload))) == self.REPORT

    def test_derived_keys_are_not_read(self):
        payload = {**self.REPORT.to_payload(), "ok": True, "breached": []}
        assert SloReport.from_payload(payload).breached == ("requeue-rate",)

    @pytest.mark.parametrize("edit, where", [
        (lambda p: p.pop("spec"), "slo: missing 'spec'"),
        (lambda p: p["objectives"][1].pop("burn_rate"),
         "slo.objectives[1]: missing 'burn_rate'"),
        (lambda p: p["objectives"][0].update(ok="yes"),
         "slo.objectives[0].ok: expected bool"),
        (lambda p: p["objectives"][0].update(actual=True),
         "slo.objectives[0].actual: expected float"),
        (lambda p: p.update(objectives=["oops"]),
         "slo.objectives[0]: expected an object"),
    ], ids=["no-spec", "no-burn-rate", "str-for-bool", "bool-for-float",
            "str-row"])
    def test_missing_or_mistyped_field_names_the_section(self, edit, where):
        payload = self.REPORT.to_payload()
        edit(payload)
        with pytest.raises(ValueError, match=re.escape(where)):
            SloReport.from_payload(payload)
