"""Unit tests for repro.codec.types."""

import numpy as np

from repro.codec.types import (
    CodedFrame,
    CodedMacroblock,
    CodedStream,
    FrameType,
    MBMode,
    MotionVector,
)


class TestMBMode:
    def test_intra_classification(self):
        assert MBMode.INTRA_16X16.is_intra
        assert MBMode.INTRA_4X4.is_intra
        assert MBMode.INTRA_8X8.is_intra
        assert not MBMode.INTER_16X16.is_intra
        assert not MBMode.SKIP.is_intra

    def test_inter_classification(self):
        assert MBMode.INTER_16X16.is_inter
        assert MBMode.INTER_8X8.is_inter
        assert MBMode.BI.is_inter
        assert not MBMode.SKIP.is_inter
        assert not MBMode.INTRA_16X16.is_inter

    def test_skip_is_neither(self):
        assert not MBMode.SKIP.is_intra
        assert not MBMode.SKIP.is_inter


class TestMotionVector:
    def test_addition(self):
        mv = MotionVector(4, -8, 1) + MotionVector(2, 3)
        assert (mv.dx, mv.dy) == (6, -5)
        assert mv.ref == 1  # left operand's ref preserved

    def test_full_pel_floor_division(self):
        assert MotionVector(9, -9).full_pel == (2, -3)
        assert MotionVector(4, 8).full_pel == (1, 2)
        assert MotionVector(0, 0).full_pel == (0, 0)


class TestCodedRecords:
    def _mb(self, levels=None):
        coeffs = (
            levels
            if levels is not None
            else np.zeros((16, 4, 4), dtype=np.int32)
        )
        return CodedMacroblock(
            mb_x=0, mb_y=0, mode=MBMode.INTER_16X16, qp=23, coeffs=coeffs
        )

    def test_frame_mb_count(self):
        frame = CodedFrame(
            index=0,
            frame_type=FrameType.I,
            qp=23,
            macroblocks=[self._mb(), self._mb()],
            recon=np.zeros((16, 32), dtype=np.uint8),
        )
        assert frame.mb_count == 2


class TestCodedStream:
    def _stream(self):
        frames = [
            CodedFrame(
                index=i,
                frame_type=FrameType.P,
                qp=23,
                macroblocks=[],
                recon=np.zeros((16, 16), dtype=np.uint8),
                bits=100 * (i + 1),
            )
            for i in (2, 0, 1)  # decode order != display order
        ]
        return CodedStream(width=16, height=16, fps=30.0, frames=frames)

    def test_total_bits(self):
        assert self._stream().total_bits == 100 * (3 + 1 + 2)

    def test_display_order_sorting(self):
        ordered = self._stream().frames_in_display_order()
        assert [f.index for f in ordered] == [0, 1, 2]

    def test_n_frames(self):
        assert self._stream().n_frames == 3
