"""Unit tests for repro.profiling (counters, perf, vtune, roofline)."""

import pytest

from repro.codec.options import EncoderOptions
from repro.profiling.counters import CounterSet
from repro.profiling.perf import profile_transcode
from repro.profiling.roofline import RooflineModel
from repro.profiling.vtune import topdown_report


@pytest.fixture(scope="module")
def profiled(request):
    tiny = request.getfixturevalue("tiny_video")
    return profile_transcode(
        tiny, EncoderOptions(crf=23, refs=2, bframes=1), data_capacity_scale=16.0
    )


class TestProfileTranscode:
    def test_counters_consistent_with_encode(self, profiled):
        assert profiled.counters.psnr_db == pytest.approx(profiled.encode.psnr_db)
        assert profiled.counters.bitrate_kbps == pytest.approx(
            profiled.encode.bitrate_kbps
        )
        assert profiled.counters.cycles == pytest.approx(profiled.report.cycles)

    def test_default_config_is_baseline(self, profiled):
        assert profiled.report.config_name == "baseline"

    def test_sampling_approximates_exact(self, tiny_video):
        opts = EncoderOptions(crf=23, refs=2, bframes=1)
        exact = profile_transcode(tiny_video, opts, data_capacity_scale=16.0)
        sampled = profile_transcode(
            tiny_video, opts, sample=4, data_capacity_scale=16.0
        )
        # Instructions are exact either way. Cycles drift on a clip this
        # tiny (sampled events over-weight cold starts) but stay within 2x.
        assert sampled.report.instructions == exact.report.instructions
        ratio = sampled.report.cycles / exact.report.cycles
        assert 0.5 < ratio < 2.0

    def test_counterset_flattening(self, profiled):
        d = profiled.counters.as_dict()
        assert set(d) == set(CounterSet.field_names())
        assert d["backend_bound"] == profiled.counters.backend_bound


class TestVtuneReport:
    def test_report_contains_categories(self, profiled):
        text = topdown_report(profiled.report, title="tiny")
        for needle in (
            "Retiring", "Bad Speculation", "Front-End Bound", "Back-End Bound",
            "Memory Bound", "Core Bound", "MPKI", "tiny",
        ):
            assert needle in text

    def test_percentages_rendered(self, profiled):
        text = topdown_report(profiled.report)
        assert "%" in text and "IPC" in text


class TestRoofline:
    def test_ridge_point(self):
        model = RooflineModel(peak_ops_per_cycle=4.0, peak_bytes_per_cycle=8.0)
        assert model.ridge_point == pytest.approx(0.5)

    def test_classification(self):
        model = RooflineModel(peak_ops_per_cycle=4.0, peak_bytes_per_cycle=8.0)
        assert model.classify(0.1) == "memory"
        assert model.classify(10.0) == "compute"

    def test_place_simulated_run(self, profiled):
        point = RooflineModel().place(profiled.report)
        assert point.operational_intensity > 0
        assert point.bound in ("memory", "compute")
        assert point.performance == pytest.approx(profiled.report.ipc)

    def test_invalid_roof_rejected(self):
        with pytest.raises(ValueError):
            RooflineModel(peak_ops_per_cycle=0.0)
