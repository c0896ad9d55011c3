"""Unit tests for the ``repro.api`` facade.

Exercises the blessed entry points (encode, profile, sweep, schedule,
serve) and asserts the aliases removed in 2.0.0 are really gone.
"""

from pathlib import Path

import pytest

import repro
from repro import api
from repro.api import TranscodeRequest, TranscodeResult

SLO_DIR = Path(__file__).resolve().parents[3] / "examples" / "slo"


class TestEncode:
    def test_encode_by_clip_name(self):
        result = api.encode("cricket", preset="veryfast", crf=30,
                            width=48, height=32, n_frames=3)
        assert isinstance(result, TranscodeResult)
        assert result.clip == "cricket"
        assert result.preset == "veryfast"
        assert result.crf == 30
        assert result.psnr_db > 0
        assert result.bitrate_kbps > 0
        assert result.cycles is None          # no simulation in encode()
        assert result.speedup_pct is None

    def test_encode_by_request_object(self):
        req = TranscodeRequest(clip="cricket", preset="veryfast", crf=35)
        result = api.encode(req, width=48, height=32, n_frames=3)
        assert result.crf == 35

    def test_request_plus_overrides_rejected(self):
        req = TranscodeRequest(clip="cricket")
        with pytest.raises(ValueError, match="not both"):
            api.encode(req, preset="slow", width=48, height=32, n_frames=3)


class TestProfile:
    def test_profile_returns_counters(self):
        profiled = api.profile("cricket", preset="veryfast", crf=30,
                               width=48, height=32, n_frames=3)
        assert profiled.counters.cycles > 0
        assert 0.0 <= profiled.counters.frontend_bound <= 100.0


class TestSweep:
    def test_sweep_static_table(self):
        out = api.sweep("tab4")
        assert "Table IV" in out

    def test_sweep_unknown_experiment(self):
        with pytest.raises(KeyError):
            api.sweep("fig42")

    def test_sweep_with_telemetry(self, tmp_path, capsys):
        from repro.obs.export import load_run

        out_dir = tmp_path / "tel"
        text = api.sweep("tab4", telemetry_dir=out_dir)
        assert "Table IV" in text
        art = load_run(out_dir / "run.json")
        assert art["experiment"] == "tab4"
        assert art["status"] == "ok"


class TestScheduleAndServe:
    def test_schedule_runs_case_study(self):
        result = api.schedule(width=48, height=32, n_frames=3)
        assert set(result.assignments) == {"random", "smart", "best"}
        assert result.assignments["smart"].mean_speedup_pct > 0

    def test_serve_smoke(self):
        report = api.serve(
            api.table3_requests(2),
            api.ServiceConfig(width=48, height=32, n_frames=3),
            control=False,
        )
        assert report.completed == 2
        assert report.control is None
        assert report.margin_vs_control_pp is None


def _quick_config():
    return api.ServiceConfig(**api.QUICK_SIZING)


#: The four telemetry-exporting entry points: name -> (call taking the
#: telemetry dir, the run.json ``experiment``, ``scale``, has ``slo``).
TELEMETRY_RUNS = {
    "sweep": (
        lambda out: api.sweep("tab4", telemetry_dir=out),
        "tab4", "quick", False,
    ),
    "serve": (
        lambda out: api.serve(
            api.table3_requests(2), _quick_config(), control=False,
            telemetry_dir=out, slo_spec=SLO_DIR / "serve.json",
        ),
        "serve", "smart", True,
    ),
    "loadtest": (
        lambda out: api.loadtest(
            api.LoadtestSpec(rates=(4.0,), duration_s=1.0), _quick_config(),
            telemetry_dir=out, slo_spec=SLO_DIR / "loadtest.json",
        ),
        "loadtest", "poisson", True,
    ),
    "fleet-compare": (
        lambda out: api.fleet_compare(
            count=2, telemetry_dir=out, **api.QUICK_SIZING
        ),
        "fleet-compare", "min-cost", False,
    ),
}


@pytest.mark.parametrize("name", TELEMETRY_RUNS)
class TestTelemetryRuns:
    """One wrapper exports all four; the run.json sections are frozen."""

    def test_run_json_sections(self, name, tmp_path, capsys):
        from repro.obs.export import load_run
        from repro.obs.session import current

        call, experiment, scale, has_slo = TELEMETRY_RUNS[name]
        call(tmp_path)
        art = load_run(tmp_path / "run.json")
        assert art["experiment"] == experiment
        assert art["scale"] == scale
        assert art["status"] == "ok"
        assert "failures" not in art
        assert ("slo" in art) == has_slo
        if has_slo:
            assert {"spec", "ok", "objectives"} <= set(art["slo"])
        assert (tmp_path / "events.jsonl").exists()
        assert (tmp_path / "trace.json").exists()
        assert f"[{experiment}] telemetry: " in capsys.readouterr().err
        assert current() is None  # the session it opened is closed again

    def test_reuses_an_active_session(self, name, tmp_path):
        # Sessions do not nest; sweep used to raise NestedSessionError here.
        from repro.obs.export import load_run
        from repro.obs.session import telemetry_session

        call, experiment, _scale, _has_slo = TELEMETRY_RUNS[name]
        with telemetry_session() as tel:
            call(tmp_path)
        art = load_run(tmp_path / "run.json")
        assert art["experiment"] == experiment
        assert art["trace_id"] == tel.trace_id

    def test_failed_run_still_exports(self, name, tmp_path, monkeypatch):
        import repro.api.facade as facade
        from repro.obs.export import load_run

        def boom(*args, **kwargs):
            raise RuntimeError("injected")

        monkeypatch.setattr(facade, "render_experiment", boom)
        for target in (
            "repro.service.service.run_service",
            "repro.loadgen.driver.run_loadtest",
            "repro.service.fleetcompare.run_fleet_compare",
        ):
            monkeypatch.setattr(target, boom)
        with pytest.raises(RuntimeError, match="injected"):
            TELEMETRY_RUNS[name][0](tmp_path)
        assert load_run(tmp_path / "run.json")["status"] == "failed"


class TestDeprecatedAliases:
    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.does_not_exist

    def test_aliases_removed_in_2_0(self):
        from repro.codec import kernels
        from repro.experiments import runner

        for module, name in (
            (repro, "transcode"),
            (repro, "profile_transcode"),
            (runner, "run"),
            (kernels, "set_backend"),
            (kernels, "use_backend"),
            # The backend switch left with the second codec body.
            (kernels, "select_backend"),
            (kernels, "backend_scope"),
            (kernels, "is_vectorized"),
            (api, "backends"),
        ):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
