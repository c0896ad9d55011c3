"""Unit tests for repro.codec.gop."""

import numpy as np
import pytest

from repro.codec.gop import plan_gop
from repro.codec.options import EncoderOptions
from repro.codec.types import FrameType
from repro.video.frame import FrameSequence
from repro.video.synthetic import SceneSpec, generate_scene
from tests.oracles import scene_change_score


def _clip(n=8, cut_period=0, motion=0.3, seed=2):
    return generate_scene(
        SceneSpec(
            width=48, height=32, n_frames=n, scene_cut_period=cut_period,
            motion_magnitude=motion, texture_detail=0.5, noise_level=0.05,
            seed=seed, name="gop",
        )
    )


class TestSceneChangeScore:
    def test_identical_frames_near_zero(self):
        frame = _clip(2).frames[0].luma
        assert scene_change_score(frame, frame) < 0.05

    def test_unrelated_frames_high_score(self):
        a = generate_scene(SceneSpec(width=48, height=32, n_frames=1, seed=1)).frames[0].luma
        b = generate_scene(SceneSpec(width=48, height=32, n_frames=1, seed=99)).frames[0].luma
        assert scene_change_score(a, b) > 0.6  # above the default threshold
        assert scene_change_score(a, b) > scene_change_score(a, a)

    def test_smooth_motion_below_cut_threshold(self):
        clip = _clip(4, motion=0.4)
        for i in range(1, 4):
            s = scene_change_score(clip[i].luma, clip[i - 1].luma)
            assert 0.0 <= s < 0.6


class TestPlanGop:
    def test_first_frame_is_idr(self):
        plan = plan_gop(_clip(), EncoderOptions())
        assert plan.frame_types[0] is FrameType.I

    def test_no_bframes_all_p(self):
        plan = plan_gop(_clip(), EncoderOptions(bframes=0, scenecut=0))
        assert plan.frame_types[0] is FrameType.I
        assert all(t is FrameType.P for t in plan.frame_types[1:])

    def test_fixed_pattern_b_adapt_0(self):
        plan = plan_gop(_clip(9), EncoderOptions(bframes=2, b_adapt=0, scenecut=0))
        # After the IDR, groups of (B, B, P) repeat.
        types = [t.value for t in plan.frame_types]
        assert types[0] == "I"
        assert "B" in types
        # No run of B longer than bframes.
        runs = "".join(types).split("P")
        assert all(run.count("B") <= 2 for run in runs)

    def test_keyint_forces_periodic_idr(self):
        plan = plan_gop(_clip(8), EncoderOptions(keyint=3, scenecut=0, bframes=0))
        i_positions = [i for i, t in enumerate(plan.frame_types) if t is FrameType.I]
        assert i_positions == [0, 3, 6]

    def test_scenecut_inserts_idr(self):
        # Static except for a hard cut, so the cut is unambiguous.
        calm = _clip(3, motion=0.0, seed=5)
        other = _clip(3, motion=0.0, seed=77)
        clip = FrameSequence(
            frames=list(calm.frames) + list(other.frames), fps=30, name="cut"
        )
        plan = plan_gop(clip, EncoderOptions(scenecut=40, bframes=0))
        assert plan.frame_types[3] is FrameType.I
        assert 3 in plan.scene_cuts

    def test_scenecut_zero_disables_detection(self):
        calm = _clip(3, motion=0.0, seed=5)
        other = _clip(3, motion=0.0, seed=77)
        clip = FrameSequence(
            frames=list(calm.frames) + list(other.frames), fps=30, name="cut"
        )
        plan = plan_gop(clip, EncoderOptions(scenecut=0, bframes=0))
        assert plan.frame_types[3] is FrameType.P
        assert plan.scene_cuts == ()

    def test_decode_order_anchors_before_their_bs(self):
        plan = plan_gop(_clip(8), EncoderOptions(bframes=2, b_adapt=0, scenecut=0))
        decoded = set()
        for idx in plan.decode_order:
            ftype = plan.frame_types[idx]
            if ftype is FrameType.B:
                # Some later anchor must already be decoded (or none exists
                # after it in display order — trailing Bs).
                future_anchors = [
                    j for j, t in enumerate(plan.frame_types)
                    if j > idx and t is not FrameType.B
                ]
                if future_anchors:
                    assert any(j in decoded for j in future_anchors)
            decoded.add(idx)

    def test_decode_order_is_permutation(self):
        plan = plan_gop(_clip(7), EncoderOptions(bframes=3))
        assert sorted(plan.decode_order) == list(range(7))

    def test_b_adapt_2_prefers_bs_on_static_content(self):
        static = _clip(8, motion=0.0, seed=4)
        plan = plan_gop(static, EncoderOptions(bframes=3, b_adapt=2, scenecut=0))
        n_b = sum(1 for t in plan.frame_types if t is FrameType.B)
        assert n_b >= 3

    def test_plan_length(self):
        plan = plan_gop(_clip(6), EncoderOptions())
        assert len(plan) == 6
