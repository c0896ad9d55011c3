"""Integration: compiler-optimization and scheduler experiments end to end."""

import pytest

from repro.codec.encoder import Encoder
from repro.codec.options import EncoderOptions
from repro.optim.pipeline import build_autofdo, build_default, build_graphite
from repro.optim.profile import collect_profile
from repro.profiling.perf import profile_transcode
from repro.scheduling.casestudy import run_case_study
from repro.trace.recorder import RecordingTracer
from repro.video.vbench import load_video

_SCALE = 24.0


@pytest.fixture(scope="module")
def clip():
    return load_video("cricket", width=80, height=48, n_frames=8)


@pytest.fixture(scope="module")
def fdo_build(clip):
    streams = []
    for name in ("desktop", "holi"):
        train = load_video(name, width=80, height=48, n_frames=6)
        build = build_default()
        tracer = RecordingTracer(build.program)
        Encoder(EncoderOptions(crf=23, refs=2), tracer=tracer).encode(train)
        streams.append(tracer.stream)
    return build_autofdo(collect_profile(streams))


class TestAutoFdoEndToEnd:
    def test_speedup_in_paper_range(self, clip, fdo_build):
        opts = EncoderOptions(crf=23, refs=3)
        base = profile_transcode(clip, opts, data_capacity_scale=_SCALE)
        fdo = profile_transcode(
            clip, opts, program=fdo_build.program, data_capacity_scale=_SCALE
        )
        speedup = (base.report.cycles / fdo.report.cycles - 1) * 100
        # Paper: 4.66% average; accept a generous band at proxy scale.
        assert 0.5 < speedup < 15.0

    def test_improves_the_right_counters(self, clip, fdo_build):
        opts = EncoderOptions(crf=23, refs=3)
        base = profile_transcode(clip, opts, data_capacity_scale=_SCALE)
        fdo = profile_transcode(
            clip, opts, program=fdo_build.program, data_capacity_scale=_SCALE
        )
        # AutoFDO attacks i-cache misses and branch mispredictions...
        assert fdo.counters.l1i_mpki < base.counters.l1i_mpki
        assert fdo.counters.branch_mpki <= base.counters.branch_mpki
        # ...and leaves the data side alone.
        assert fdo.counters.l1d_mpki == pytest.approx(
            base.counters.l1d_mpki, rel=0.01
        )

    def test_bitstream_unchanged(self, clip, fdo_build):
        """Compiler optimization must not change encoder output."""
        opts = EncoderOptions(crf=23, refs=3)
        base = profile_transcode(clip, opts, data_capacity_scale=_SCALE)
        fdo = profile_transcode(
            clip, opts, program=fdo_build.program, data_capacity_scale=_SCALE
        )
        assert (
            base.encode.stream.bitstream == fdo.encode.stream.bitstream
        )


class TestGraphiteEndToEnd:
    def test_speedup_and_dcache_improvement(self, clip):
        opts = EncoderOptions(crf=23, refs=3)
        build = build_graphite()
        base = profile_transcode(clip, opts, data_capacity_scale=_SCALE)
        gr = profile_transcode(
            clip, opts, program=build.program, loop_opts=build.loop_opts,
            data_capacity_scale=_SCALE,
        )
        speedup = (base.report.cycles / gr.report.cycles - 1) * 100
        assert 0.5 < speedup < 15.0
        assert gr.counters.l1d_mpki < base.counters.l1d_mpki

    def test_bitstream_unchanged(self, clip):
        opts = EncoderOptions(crf=23, refs=3)
        build = build_graphite()
        base = profile_transcode(clip, opts, data_capacity_scale=_SCALE)
        gr = profile_transcode(
            clip, opts, program=build.program, loop_opts=build.loop_opts,
            data_capacity_scale=_SCALE,
        )
        assert base.encode.stream.bitstream == gr.encode.stream.bitstream


class TestSchedulerEndToEnd:
    @pytest.fixture(scope="class")
    def study(self):
        return run_case_study(
            width=80, height=48, n_frames=6, data_capacity_scale=_SCALE
        )

    def test_ordering_best_smart_random(self, study):
        speedups = {
            name: a.mean_speedup_pct for name, a in study.assignments.items()
        }
        assert speedups["best"] >= speedups["smart"] >= speedups["random"] - 0.5

    def test_every_config_gains_over_baseline(self, study):
        for task_id, per_config in study.cycles.items():
            base = study.baseline_cycles[task_id]
            for cycles in per_config.values():
                assert cycles <= base * 1.01

    def test_smart_beats_random(self, study):
        assert study.smart_vs_random_pct > 0.0

    def test_smart_close_to_best(self, study):
        smart = study.assignments["smart"].mean_speedup_pct
        best = study.assignments["best"].mean_speedup_pct
        assert smart >= best * 0.4  # captures a sizeable share of the oracle

    def test_one_to_one_respected(self, study):
        placement = study.assignments["smart"].placement
        assert sorted(placement.values()) == sorted(study.config_names)
