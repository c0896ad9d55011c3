"""Unit tests for repro.optim (profile, autofdo, graphite, pipeline)."""

import numpy as np
import pytest

from repro.codec.encoder import Encoder
from repro.codec.options import EncoderOptions
from repro.optim.autofdo import autofdo_optimize, fdo_layout
from repro.optim.graphite import GRAPHITE_FLAGS, analyze_kernels
from repro.optim.pipeline import build_autofdo, build_default, build_graphite
from repro.optim.profile import collect_profile
from repro.trace.kernels import KERNELS, build_program
from repro.trace.recorder import RecordingTracer


@pytest.fixture(scope="module")
def training_stream(request):
    tiny = request.getfixturevalue("tiny_video")
    program = build_program()
    tracer = RecordingTracer(program)
    Encoder(EncoderOptions(crf=23, refs=2, bframes=1), tracer=tracer).encode(tiny)
    return tracer.stream


class TestExecutionProfile:
    def test_collect_requires_streams(self):
        with pytest.raises(ValueError):
            collect_profile([])

    def test_merge_accumulates(self, training_stream):
        profile = collect_profile([training_stream, training_stream])
        assert profile.n_runs == 2
        assert profile.total_instructions == pytest.approx(
            2 * training_stream.total_instructions
        )

    def test_heat_sums_to_one(self, training_stream):
        profile = collect_profile([training_stream])
        total_heat = sum(profile.heat(k) for k in profile.kernel_instructions)
        assert total_heat == pytest.approx(1.0)

    def test_hottest_first_ordering(self, training_stream):
        profile = collect_profile([training_stream])
        order = profile.hottest_first()
        heats = [profile.heat(k) for k in order]
        assert heats == sorted(heats, reverse=True)

    def test_me_sad_is_hot(self, training_stream):
        profile = collect_profile([training_stream])
        assert profile.heat("me_sad") > 0.05

    def test_branch_bias_recorded(self, training_stream):
        profile = collect_profile([training_stream])
        assert profile.branch_bias  # at least one site
        for taken, total in profile.branch_bias.values():
            assert 0 <= taken <= total


class TestAutoFdo:
    def test_layout_shrinks_fetch_footprints(self, training_stream):
        program = build_program()
        profile = collect_profile([training_stream])
        optimized = autofdo_optimize(program, profile)
        for name in profile.hottest_first()[:5]:
            before = len(program.layout.fetch_line_addrs[name])
            after = len(optimized.layout.fetch_line_addrs[name])
            assert after <= before
            assert after == program.kernels[name].hot_lines

    def test_hot_kernels_clustered(self, training_stream):
        program = build_program()
        profile = collect_profile([training_stream])
        layout = fdo_layout(program, profile)
        hottest = profile.hottest_first()[:3]
        addr_ranges = [layout.fetch_line_addrs[k] for k in hottest]
        span = max(a.max() for a in addr_ranges) - min(a.min() for a in addr_ranges)
        hot_bytes = sum(program.kernels[k].hot_lines for k in hottest) * 64
        # The three hottest kernels live within ~the hot section, not
        # scattered across the whole binary.
        assert span < hot_bytes * 20

    def test_branch_hints_enabled(self, training_stream):
        profile = collect_profile([training_stream])
        layout = fdo_layout(build_program(), profile)
        assert layout.branch_hints

    def test_kernels_unchanged(self, training_stream):
        profile = collect_profile([training_stream])
        optimized = autofdo_optimize(build_program(), profile)
        assert set(optimized.kernels) == set(KERNELS)

    def test_no_address_overlap(self, training_stream):
        # Hot and cold line sets jointly cover each kernel exactly once
        # (fetch sets of unprofiled kernels alias their hot+cold extent,
        # so uniqueness is checked over hot+cold).
        profile = collect_profile([training_stream])
        layout = fdo_layout(build_program(), profile)
        all_addrs = np.concatenate(
            [a for a in layout.hot_line_addrs.values() if a.size]
            + [a for a in layout.cold_line_addrs.values() if a.size]
        )
        assert len(np.unique(all_addrs)) == len(all_addrs)


class TestGraphite:
    def test_analysis_finds_tileable_nests(self):
        report = analyze_kernels(KERNELS)
        assert "dct4" in report.transformed
        assert "deblock" in report.transformed
        assert report.loop_opts.tile_transform
        assert report.loop_opts.fuse_deblock

    def test_dependence_bound_nests_rejected(self):
        report = analyze_kernels(KERNELS)
        assert "me_sad" in report.rejected  # sequential search, not tileable

    def test_loop_opts_helper(self):
        assert analyze_kernels(KERNELS).loop_opts.any_enabled

    def test_describe(self):
        text = analyze_kernels(KERNELS).describe()
        assert "transformed" in text and "rejected" in text


class TestBuilds:
    def test_default_build(self):
        build = build_default()
        assert build.name == "default"
        assert not build.loop_opts.any_enabled
        assert "-O2" in build.flags

    def test_graphite_build_flags(self):
        build = build_graphite()
        for flag in GRAPHITE_FLAGS:
            assert flag in build.flags
        assert build.loop_opts.any_enabled

    def test_autofdo_build(self, training_stream):
        build = build_autofdo(collect_profile([training_stream]))
        assert build.program.layout.branch_hints
        assert "autofdo" in build.program.layout.description
        assert any("auto-profile" in f for f in build.flags)

    def test_describe(self, training_stream):
        assert "autofdo" in build_autofdo(
            collect_profile([training_stream])
        ).describe()
