"""End-to-end serving-mode tests: the paper's §V case study replayed
through the long-lived job service.

The headline check mirrors the paper's serving-mode claim: over a Table
III job mix on the Table IV fleet, smart placement achieves strictly
better mean speedup (and no worse mean latency) than the random-
placement control.
"""

import json

import pytest

from repro.api import ServiceConfig, serve, table3_requests
from repro.cli import main

QUICK = dict(width=48, height=32, n_frames=4)


class TestServingModeMargin:
    @pytest.fixture(scope="class")
    def report(self):
        return serve(table3_requests(8), ServiceConfig(**QUICK))

    def test_all_jobs_complete(self, report):
        assert report.jobs_total == 8
        assert report.completed == 8
        assert report.failed == 0
        assert report.control.completed == 8

    def test_smart_strictly_beats_random_control(self, report):
        assert report.mean_speedup_pct > report.control.mean_speedup_pct
        assert report.margin_vs_control_pp > 0

    def test_smart_latency_no_worse_than_random(self, report):
        assert (report.mean_latency_cycles
                <= report.control.mean_latency_cycles)

    def test_margin_lands_in_run_json(self, tmp_path, capsys):
        from repro.obs.export import load_run

        out = tmp_path / "tel"
        report = serve(
            table3_requests(4), ServiceConfig(**QUICK), telemetry_dir=out
        )
        art = load_run(out / "run.json")
        assert art["experiment"] == "serve"
        metrics = art["metrics"]
        assert metrics["service.jobs_completed"] == 8.0  # primary + control
        assert metrics["service.smart.mean_speedup_pct"] == pytest.approx(
            report.mean_speedup_pct
        )
        assert metrics["service.random.mean_speedup_pct"] == pytest.approx(
            report.control.mean_speedup_pct
        )
        assert metrics["service.margin_vs_control_pp"] == pytest.approx(
            report.margin_vs_control_pp
        )
        assert metrics["service.margin_vs_control_pp"] > 0


class TestServeCli:
    def test_submit_then_serve_round_trip(self, tmp_path, capsys):
        spool = tmp_path / "spool.jsonl"
        for clip, crf in (("desktop", 30), ("holi", 10),
                          ("presentation", 35), ("game2", 15)):
            assert main(["submit", clip, "--crf", str(crf),
                         "--spool", str(spool)]) == 0
        assert len(spool.read_text().splitlines()) == 4

        out = tmp_path / "out"
        code = main(["serve", "--spool", str(spool), "--quick",
                     "--no-control", "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert "4/4 jobs completed" in captured.out

        doc = json.loads((out / "jobs.json").read_text())
        assert doc["policy"] == "smart"
        assert doc["completed"] == 4
        assert all(j["state"] == "done" for j in doc["jobs"])

    def test_mix_with_injected_worker_crash(self, tmp_path, capsys):
        out = tmp_path / "tel"
        code = main([
            "serve", "--mix", "table3", "--count", "8", "--quick",
            "--no-control",
            "--fault-plan", "service.worker,at=3,raise=RuntimeError",
            "--telemetry", str(out),
        ])
        assert code == 0
        doc = json.loads((out / "jobs.json").read_text())
        assert doc["completed"] == 8
        assert doc["worker_crashes"] == 1
        run = json.loads((out / "run.json").read_text())
        assert run["metrics"]["service.worker_crashes"] == 1.0

    def test_serve_rejects_bad_fleet(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--mix", "table3", "--quick",
                  "--fleet", "warp_drive"])

    def test_serve_without_spool_errors(self, tmp_path, capsys,
                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit):
            main(["serve"])

    def test_checkpoint_resume_across_invocations(self, tmp_path, capsys):
        ckpt = tmp_path / "ck.json"
        spool = tmp_path / "spool.jsonl"
        assert main(["submit", "cricket", "--spool", str(spool)]) == 0
        assert main(["serve", "--spool", str(spool), "--quick",
                     "--no-control", "--checkpoint", str(ckpt)]) == 0
        assert ckpt.exists()
        # A resumed service sees the finished job and re-runs nothing.
        assert main(["serve", "--spool", str(spool), "--quick",
                     "--no-control", "--checkpoint", str(ckpt),
                     "--resume"]) == 0
