"""End-to-end observability tests: traces, stage latencies, SLOs.

Drives ``repro serve`` (through the facade and the CLI) under a
telemetry session and asserts the PR's acceptance scenario: an 8-job
run produces a ``run.json`` with complete per-job span trees in the
Chrome-trace export, per-config stage-latency histograms, and an
evaluated ``slo`` section; ``repro slo check`` exits 0 on the clean run
and non-zero when an injected worker crash pushes the requeue rate over
budget. A smaller fan-out test pins the cross-process span adoption the
sweep engine performs.
"""

import json
import threading
from pathlib import Path
from unittest import mock

import pytest

from repro.api import ServiceConfig, serve, table3_requests
from repro.cli import main
from repro.obs.export import load_run, read_events_jsonl
from repro.obs.metrics import parse_label_key

QUICK = dict(width=48, height=32, n_frames=4)

SPEC = Path(__file__).resolve().parents[2] / "examples" / "slo" / "serve.json"


class TestServeObservability:
    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("serve-obs")
        # The pass starts no thread: metrics.prom is one write at the end.
        with mock.patch.object(threading.Thread, "start",
                               side_effect=AssertionError("thread started")):
            serve(
                table3_requests(8),
                ServiceConfig(**QUICK),
                control=False,
                telemetry_dir=out,
                slo_spec=SPEC,
                metrics_out=out / "metrics",
            )
        return out

    def test_run_json_has_trace_id_and_slo(self, run_dir):
        art = load_run(run_dir / "run.json")
        assert art["trace_id"]
        assert art["slo"]["ok"] is True
        assert art["slo"]["breached"] == []
        kinds = {o["kind"] for o in art["slo"]["objectives"]}
        assert kinds == {"latency", "error_rate", "deadline_miss_rate"}

    def test_per_config_stage_latency_histograms(self, run_dir):
        art = load_run(run_dir / "run.json")
        stages: dict[str, set[str]] = {}
        for key, snap in art["metrics"].items():
            name, labels = parse_label_key(key)
            if name != "service.stage_latency_s":
                continue
            assert isinstance(snap, dict) and snap["count"] >= 1
            assert {"stage", "config", "policy"} <= set(labels)
            stages.setdefault(labels["stage"], set()).add(labels["config"])
        assert {"queue_wait", "placement", "encode", "e2e"} <= set(stages)
        # Every fleet config completed jobs, so each appears per stage.
        assert stages["encode"] == {"fe_op", "be_op1", "be_op2", "bs_op"}

    def test_chrome_trace_has_one_lane_per_job(self, run_dir):
        trace = json.loads((run_dir / "trace.json").read_text())
        lanes = {
            ev["args"]["name"]
            for ev in trace["traceEvents"]
            if ev.get("ph") == "M" and ev.get("name") == "thread_name"
        }
        assert lanes == {f"job {i}" for i in range(1, 9)}

    def test_every_job_has_complete_span_tree(self, run_dir):
        """submit → job → encode, linked parent→child, for all 8 jobs."""
        records = read_events_jsonl(run_dir / "events.jsonl")
        by_id = {r["span_id"]: r for r in records}
        for job_id in range(1, 9):
            spans = {r["name"]: r for r in records
                     if (r.get("attrs") or {}).get("job") == job_id}
            assert {"service.submit", "service.job",
                    "worker.encode"} <= set(spans)
            encode = spans["worker.encode"]
            assert by_id[encode["parent_id"]]["name"] == "service.job"

    def test_simulator_time_is_attributable_to_the_data_side(self, run_dir):
        """Every replay window times its data-cache flush in a child span."""
        records = read_events_jsonl(run_dir / "events.jsonl")
        by_id = {r["span_id"]: r for r in records}
        flushes = [r for r in records if r["name"] == "simulate.dcache"]
        windows = [r for r in records if r["name"] == "simulate.window"]
        assert flushes and len(flushes) == len(windows)
        for flush in flushes:
            window = by_id[flush["parent_id"]]
            assert window["name"] == "simulate.window"
            assert flush["attrs"]["lines"] > 0
            simulate = by_id[window["parent_id"]]
            assert flush["attrs"]["config"] == simulate["attrs"]["config"]

    def test_metrics_out_snapshot_written(self, run_dir):
        prom = (run_dir / "metrics" / "metrics.prom").read_text()
        assert "repro_service_stage_latency_s_bucket" in prom
        assert 'stage="encode"' in prom
        slo_doc = json.loads((run_dir / "metrics" / "slo.json").read_text())
        assert slo_doc["ok"] is True
        # One evaluation feeds both files.
        assert slo_doc == load_run(run_dir / "run.json")["slo"]

    def test_slo_check_exits_zero(self, run_dir, capsys):
        code = main(["slo", "check", str(run_dir / "run.json"),
                     "--spec", str(SPEC)])
        assert code == 0

    def test_timeline_renders_for_every_job(self, run_dir, capsys):
        for job_id in (1, 8):
            assert main(["report", str(run_dir / "run.json"),
                         "--timeline", str(job_id)]) == 0
            out = capsys.readouterr().out
            assert f"timeline for job {job_id}" in out
            assert "worker.encode" in out


class TestSloBreachGate:
    def test_injected_crash_breaches_requeue_budget(self, tmp_path, capsys):
        out = tmp_path / "crash"
        code = main([
            "serve", "--mix", "table3", "--count", "8", "--quick",
            "--no-control",
            "--telemetry", str(out),
            "--slo", str(SPEC),
            "--fault-plan", "service.worker,at=2,raise=RuntimeError",
        ])
        assert code == 0                      # the job itself re-placed OK
        capsys.readouterr()
        art = load_run(out / "run.json")
        assert art["slo"]["ok"] is False
        assert "requeue-rate" in art["slo"]["breached"]
        gate = main(["slo", "check", str(out / "run.json"),
                     "--spec", str(SPEC)])
        assert gate == 2


class TestFanOutTracePropagation:
    def test_worker_spans_adopted_under_fan_out(self):
        """A 2-process fan-out ships span trees back: the parent's
        artifact contains worker.task spans parented (transitively)
        under parallel.fan_out, on the parent's time axis."""
        from repro.experiments.runner import QUICK, SweepRunner
        from repro.obs import session as obs

        scale = QUICK.with_updates(
            name="quick-trace", crf_values=(1, 23), refs_values=(1, 4)
        )
        with obs.telemetry_session() as tel:
            records = SweepRunner(scale, jobs=2, cache=False).crf_refs_sweep()
            assert len(records) == 4
            spans = {s.name: s for s in tel.spans.finished}
        assert "parallel.fan_out" in spans
        tasks = [s for s in tel.spans.finished if s.name == "worker.task"]
        assert len(tasks) == 4
        fan_out = spans["parallel.fan_out"]
        for task in tasks:
            assert task.parent_id == fan_out.span_id
            assert task.depth == fan_out.depth + 1
            # Shared monotonic clock: adopted spans sit inside the
            # fan_out interval.
            assert fan_out.start_ns <= task.start_ns <= fan_out.end_ns
