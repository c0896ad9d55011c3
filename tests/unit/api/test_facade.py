"""Unit tests for the ``repro.api`` facade.

Exercises the blessed entry points (encode, profile, sweep, schedule,
serve) and asserts the aliases removed in 2.0.0 are really gone.
"""

import pytest

import repro
from repro import api
from repro.api import TranscodeRequest, TranscodeResult


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
        from repro.obs import load_run

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
        ):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
