"""Unit tests for `repro slo check` and `repro report --timeline`."""

import json

import pytest

from repro.cli import main
from repro.obs import session as obs
from repro.obs.export import export_session


def _spec_doc(max_rate=0.03):
    return {
        "name": "gate",
        "objectives": [
            {
                "name": "requeue-rate",
                "kind": "error_rate",
                "bad": "service.requeues",
                "total": "service.jobs_submitted",
                "max_rate": max_rate,
            }
        ],
    }


@pytest.fixture()
def run_dir(tmp_path):
    """A synthetic exported session: one job's span tree + counters."""
    with obs.telemetry_session() as tel:
        tel.metrics.counter("service.jobs_submitted").inc(16)
        tel.metrics.counter("service.requeues").inc(1)
        with tel.spans.span("service.submit", job=3):
            pass
        with tel.spans.span("service.drain"):
            with tel.spans.span("service.job", job=3, worker="w0"):
                with tel.spans.span("worker.encode", job=3):
                    pass
            with tel.spans.span("service.job", job=4):
                pass
        export_session(
            tel, tmp_path, experiment="serve", scale="smart",
            wall_seconds=1.0,
        )
    return tmp_path


class TestSloCheck:
    def _write_spec(self, tmp_path, **kwargs):
        spec = tmp_path / "slo.json"
        spec.write_text(json.dumps(_spec_doc(**kwargs)))
        return spec

    def test_exit_zero_when_met(self, run_dir, tmp_path, capsys):
        spec = self._write_spec(tmp_path, max_rate=0.5)
        code = main(["slo", "check", str(run_dir / "run.json"),
                     "--spec", str(spec)])
        assert code == 0
        assert "all objectives met" in capsys.readouterr().out

    def test_exit_two_on_breach(self, run_dir, tmp_path, capsys):
        spec = self._write_spec(tmp_path, max_rate=0.03)
        code = main(["slo", "check", str(run_dir / "run.json"),
                     "--spec", str(spec)])
        assert code == 2
        assert "requeue-rate" in capsys.readouterr().out

    def test_exit_one_on_bad_spec(self, run_dir, tmp_path, capsys):
        spec = tmp_path / "slo.json"
        spec.write_text("{broken")
        code = main(["slo", "check", str(run_dir / "run.json"),
                     "--spec", str(spec)])
        assert code == 1
        assert "repro slo:" in capsys.readouterr().err

    def test_spec_required(self, run_dir, monkeypatch):
        monkeypatch.delenv("REPRO_SLO_SPEC", raising=False)
        with pytest.raises(SystemExit):
            main(["slo", "check", str(run_dir / "run.json")])

    def test_spec_from_environment(self, run_dir, tmp_path, monkeypatch):
        spec = self._write_spec(tmp_path, max_rate=0.5)
        monkeypatch.setenv("REPRO_SLO_SPEC", str(spec))
        assert main(["slo", "check", str(run_dir / "run.json")]) == 0


class TestReportTimeline:
    def test_renders_job_tree(self, run_dir, capsys):
        code = main(["report", str(run_dir / "run.json"),
                     "--timeline", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "timeline for job 3" in out
        # The job's own spans plus the drain scaffolding they hang under.
        for name in ("service.submit", "service.drain",
                     "service.job", "worker.encode"):
            assert name in out
        assert "w0" in out                # attrs are shown

    def test_unknown_job_reports_no_spans(self, run_dir, capsys):
        assert main(["report", str(run_dir / "run.json"),
                     "--timeline", "99"]) == 0
        assert "no spans found" in capsys.readouterr().out

    def test_missing_events_stream_fails(self, run_dir, capsys):
        (run_dir / "events.jsonl").unlink()
        code = main(["report", str(run_dir / "run.json"),
                     "--timeline", "3"])
        assert code == 1
        assert "no event stream" in capsys.readouterr().err


class TestReportSloSections:
    def _artifact_with_slo(self, tmp_path, ok):
        with obs.telemetry_session() as tel:
            tel.metrics.counter("service.jobs_submitted").inc(10)
            slo = {
                "spec": "gate",
                "ok": ok,
                "breached": [] if ok else ["requeue-rate"],
                "objectives": [
                    {"name": "requeue-rate", "kind": "error_rate",
                     "ok": ok, "actual": 0.0 if ok else 0.2,
                     "target": 0.03, "burn_rate": 0.0 if ok else 6.67,
                     "budget_remaining": 1.0 if ok else -5.67,
                     "detail": ""},
                ],
            }
            export_session(
                tel, tmp_path, experiment="serve", scale="smart",
                wall_seconds=1.0, slo=slo,
            )
        return tmp_path / "run.json"

    def test_render_includes_slo_verdict(self, tmp_path, capsys):
        path = self._artifact_with_slo(tmp_path / "a", ok=False)
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "slo gate:" in out
        assert "BREACHED: requeue-rate" in out

    def test_diff_compares_slo_objectives(self, tmp_path, capsys):
        a = self._artifact_with_slo(tmp_path / "a", ok=True)
        b = self._artifact_with_slo(tmp_path / "b", ok=False)
        assert main(["report", "--diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "slo objectives:" in out
        assert "requeue-rate" in out
        assert "pass" in out and "FAIL" in out
