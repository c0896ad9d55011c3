"""Unit tests for repro.codec.ratecontrol."""

import pytest

from repro.codec.options import EncoderOptions
from repro.codec.ratecontrol import FirstPassStats, RateController
from repro.codec.types import FrameType


def _rc(**opts):
    options = EncoderOptions(**opts)
    first_pass = None
    if options.rc_mode == "2pass-abr":
        first_pass = FirstPassStats()
        for cost in (1000, 4000, 2000, 1000):
            first_pass.add(cost)
    return RateController(
        options, fps=30.0, n_mbs_per_frame=6, first_pass=first_pass
    )


class TestCqp:
    def test_constant_qp_with_type_offsets(self):
        rc = _rc(rc_mode="cqp", qp=30)
        assert rc.frame_qp(FrameType.I, 1.0) == 27
        assert rc.frame_qp(FrameType.P, 1.0) == 30
        assert rc.frame_qp(FrameType.B, 1.0) == 32

    def test_feedback_has_no_effect(self):
        rc = _rc(rc_mode="cqp", qp=30)
        rc.frame_qp(FrameType.P, 1.0)
        rc.update(10**9)
        assert rc.frame_qp(FrameType.P, 1.0) == 30


class TestCrf:
    def test_base_follows_crf(self):
        assert _rc(rc_mode="crf", crf=18).frame_qp(FrameType.P, 1.0) == 18
        assert _rc(rc_mode="crf", crf=40).frame_qp(FrameType.P, 1.0) == 40

    def test_i_frames_get_lower_qp(self):
        rc = _rc(rc_mode="crf", crf=23)
        assert rc.frame_qp(FrameType.I, 1.0) < rc.frame_qp(FrameType.P, 1.0)


class TestAbr:
    def test_overshoot_raises_qp(self):
        rc = _rc(rc_mode="abr", bitrate_kbps=100.0)
        q0 = rc.frame_qp(FrameType.P, 1.0)
        for _ in range(5):
            rc.update(10**6)  # massively over budget
        assert rc.frame_qp(FrameType.P, 1.0) > q0

    def test_undershoot_lowers_qp(self):
        rc = _rc(rc_mode="abr", bitrate_kbps=10000.0)
        q0 = rc.frame_qp(FrameType.P, 1.0)
        for _ in range(5):
            rc.update(10)  # way under budget
        assert rc.frame_qp(FrameType.P, 1.0) < q0

    def test_qp_stays_in_range(self):
        rc = _rc(rc_mode="abr", bitrate_kbps=1.0)
        for _ in range(20):
            rc.update(10**7)
        assert 0 <= rc.frame_qp(FrameType.P, 1.0) <= 51


class TestTwoPass:
    def test_requires_first_pass(self):
        with pytest.raises(ValueError, match="requires FirstPassStats"):
            RateController(
                EncoderOptions(rc_mode="2pass-abr"), fps=30, n_mbs_per_frame=4
            )

    def test_complex_frames_get_lower_qp(self):
        rc = _rc(rc_mode="2pass-abr", bitrate_kbps=1000.0)
        q_simple = rc.frame_qp(FrameType.P, 1.0)  # cost 1000 (below mean)
        rc.update(1000)
        q_complex = rc.frame_qp(FrameType.P, 1.0)  # cost 4000 (above mean)
        assert q_complex < q_simple


class TestCbrMacroblockLevel:
    def test_mb_qp_rises_when_over_budget(self):
        rc = _rc(rc_mode="cbr", bitrate_kbps=100.0)
        base = rc.frame_qp(FrameType.P, 1.0)
        before = rc.mb_qp(base, 10.0, 10.0)
        rc.note_mb_bits(10**6)  # blow the frame budget immediately
        after = rc.mb_qp(base, 10.0, 10.0)
        assert after > before

    def test_other_modes_ignore_mb_budget(self):
        rc = _rc(rc_mode="crf", crf=23, aq_mode=0)
        base = rc.frame_qp(FrameType.P, 1.0)
        rc.note_mb_bits(10**6)
        assert rc.mb_qp(base, 10.0, 10.0) == base


class TestVbv:
    def test_pressure_raises_qp_when_buffer_full(self):
        rc = _rc(
            rc_mode="vbv", crf=23,
            vbv_maxrate_kbps=100.0, vbv_bufsize_kbits=10.0,
        )
        q0 = rc.frame_qp(FrameType.P, 1.0)
        for _ in range(10):
            rc.update(50_000)  # far above maxrate per frame
        assert rc.frame_qp(FrameType.P, 1.0) > q0

    def test_disabled_without_buffer_params(self):
        rc = _rc(rc_mode="vbv", crf=23)
        q0 = rc.frame_qp(FrameType.P, 1.0)
        rc.update(10**7)
        assert rc.frame_qp(FrameType.P, 1.0) == q0


class TestAdaptiveQuant:
    def test_flat_blocks_get_lower_qp(self):
        rc = _rc(rc_mode="crf", crf=23, aq_mode=1)
        base = rc.frame_qp(FrameType.P, 1.0)
        flat = rc.mb_qp(base, mb_variance=1.0, mean_variance=100.0)
        busy = rc.mb_qp(base, mb_variance=10000.0, mean_variance=100.0)
        assert flat < base <= busy + 1

    def test_aq_off_keeps_base(self):
        rc = _rc(rc_mode="crf", crf=23, aq_mode=0)
        base = rc.frame_qp(FrameType.P, 1.0)
        assert rc.mb_qp(base, 1.0, 100.0) == base

    def test_mb_qp_in_range(self):
        rc = _rc(rc_mode="crf", crf=1, aq_mode=1)
        base = rc.frame_qp(FrameType.I, 1.0)
        assert 0 <= rc.mb_qp(base, 0.001, 1e6) <= 51
