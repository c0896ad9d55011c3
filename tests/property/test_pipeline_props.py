"""Property-based tests on pipeline-level invariants (GOP placement and
top-down accounting)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec.gop import plan_gop
from repro.codec.options import EncoderOptions
from repro.codec.types import FrameType
from repro.uarch.topdown import TopdownBreakdown
from repro.video.frame import FrameSequence
from repro.video.synthetic import SceneSpec, generate_scene


def _clip(seed: int, n: int) -> FrameSequence:
    return generate_scene(
        SceneSpec(
            width=32, height=32, n_frames=n,
            motion_magnitude=(seed % 10) / 10.0,
            texture_detail=((seed // 10) % 10) / 10.0,
            seed=seed, name=f"prop{seed}",
        )
    )


class TestGopProps:
    @given(
        seed=st.integers(min_value=0, max_value=300),
        n=st.integers(min_value=1, max_value=12),
        bframes=st.integers(min_value=0, max_value=4),
        b_adapt=st.sampled_from([0, 1, 2]),
        keyint=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_gop_structural_invariants(self, seed, n, bframes, b_adapt, keyint):
        clip = _clip(seed, n)
        options = EncoderOptions(
            bframes=bframes, b_adapt=b_adapt, keyint=keyint, scenecut=0
        )
        plan = plan_gop(clip, options)
        # 1. Exactly n frames, first is IDR.
        assert len(plan) == n
        assert plan.frame_types[0] is FrameType.I
        # 2. Decode order is a permutation.
        assert sorted(plan.decode_order) == list(range(n))
        # 3. No B-run exceeds bframes.
        run = 0
        for t in plan.frame_types:
            if t is FrameType.B:
                run += 1
                assert run <= max(bframes, 1)
            else:
                run = 0
        # 4. keyint honored: gaps between I frames <= keyint.
        i_positions = [i for i, t in enumerate(plan.frame_types) if t is FrameType.I]
        for a, b in zip(i_positions, i_positions[1:]):
            assert b - a <= keyint
        # 5. bframes=0 means no B pictures at all.
        if bframes == 0:
            assert FrameType.B not in plan.frame_types


class TestTopdownProps:
    @given(
        uops=st.floats(min_value=1, max_value=1e9),
        fe=st.floats(min_value=0, max_value=1e6),
        bs=st.floats(min_value=0, max_value=1e6),
        mem=st.floats(min_value=0, max_value=1e6),
        core=st.floats(min_value=0, max_value=1e6),
        width=st.sampled_from([2, 4, 8]),
    )
    def test_categories_always_sum_to_100(self, uops, fe, bs, mem, core, width):
        td = TopdownBreakdown.from_cycles(
            width=width, uops=uops, base_cycles=uops / width,
            fe_cycles=fe, bs_cycles=bs, mem_cycles=mem, core_cycles=core,
        )
        total = td.retiring + td.bad_speculation + td.frontend_bound + td.backend_bound
        assert total == pytest_approx_100()
        assert 0 <= td.bad_speculation <= 100
        assert 0 <= td.frontend_bound <= 100
        assert 0 <= td.backend_bound <= 100

    @given(
        uops=st.floats(min_value=1, max_value=1e6),
        stall=st.floats(min_value=0, max_value=1e6),
    )
    def test_more_memory_stall_more_backend_bound(self, uops, stall):
        kw = dict(width=4, uops=uops, base_cycles=uops / 4,
                  fe_cycles=0.0, bs_cycles=0.0, core_cycles=0.0)
        lo = TopdownBreakdown.from_cycles(mem_cycles=stall, **kw)
        hi = TopdownBreakdown.from_cycles(mem_cycles=stall * 2 + 1, **kw)
        assert hi.backend_bound >= lo.backend_bound


def pytest_approx_100():
    import pytest

    return pytest.approx(100.0, abs=1e-6)

