"""Unit tests for repro.codec.ratecontrol."""

from repro.codec.ratecontrol import frame_qp, mb_qp
from repro.codec.types import FrameType


class TestCrf:
    def test_base_follows_crf(self):
        assert frame_qp(18, FrameType.P) == 18
        assert frame_qp(40, FrameType.P) == 40

    def test_i_frames_get_lower_qp(self):
        assert frame_qp(23, FrameType.I) < frame_qp(23, FrameType.P)
        assert (frame_qp(30, FrameType.I), frame_qp(30, FrameType.B)) == (27, 32)
        assert (frame_qp(1, FrameType.I), frame_qp(51, FrameType.B)) == (0, 51)


class TestAdaptiveQuant:
    def test_flat_blocks_get_lower_qp(self):
        base = frame_qp(23, FrameType.P)
        flat = mb_qp(1, base, mb_variance=1.0, mean_variance=100.0)
        busy = mb_qp(1, base, mb_variance=10000.0, mean_variance=100.0)
        assert flat < base <= busy + 1

    def test_aq_off_keeps_base(self):
        base = frame_qp(23, FrameType.P)
        assert mb_qp(0, base, 1.0, 100.0) == base

    def test_mb_qp_in_range(self):
        base = frame_qp(1, FrameType.I)
        assert 0 <= mb_qp(1, base, 0.001, 1e6) <= 51
