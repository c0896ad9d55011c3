"""Unit tests for repro.video.frame."""

import numpy as np
import pytest

from repro.video.frame import MB_SIZE, Frame, FrameSequence


def _luma(h, w, value=10):
    return np.full((h, w), value, dtype=np.uint8)


class TestFrame:
    def test_geometry_properties(self):
        f = Frame(_luma(32, 48))
        assert f.height == 32
        assert f.width == 48
        assert f.resolution == (48, 32)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            Frame(np.zeros((2, 3, 4), dtype=np.uint8))

    def test_rejects_wrong_dtype(self):
        with pytest.raises(ValueError, match="uint8"):
            Frame(np.zeros((16, 16), dtype=np.float32))

    def test_chroma_shape_validated(self):
        ch = np.zeros((16, 24), dtype=np.uint8)
        f = Frame(_luma(32, 48), chroma=(ch, ch))
        assert f.chroma is not None
        with pytest.raises(ValueError, match="chroma"):
            Frame(_luma(32, 48), chroma=(np.zeros((8, 8), np.uint8),) * 2)

    def test_padded_luma_noop_when_aligned(self):
        f = Frame(_luma(32, 48))
        assert f.padded_luma() is f.luma

    def test_padded_luma_pads_to_mb_multiple(self):
        f = Frame(_luma(30, 47))
        padded = f.padded_luma()
        assert padded.shape == (32, 48)
        # Edge padding replicates border pixels.
        assert np.array_equal(padded[30, :47], f.luma[29, :])

    def test_padded_luma_custom_multiple(self):
        f = Frame(_luma(17, 17))
        assert f.padded_luma(8).shape == (24, 24)

    def test_mb_size_constant(self):
        assert MB_SIZE == 16

    def test_downscale_averages_blocks(self):
        luma = np.zeros((4, 4), dtype=np.uint8)
        luma[:2, :2] = 100
        f = Frame(luma).downscale(2)
        assert f.luma.shape == (2, 2)
        assert f.luma[0, 0] == 100
        assert f.luma[1, 1] == 0

    def test_downscale_rejects_too_small(self):
        with pytest.raises(ValueError):
            Frame(_luma(4, 4)).downscale(8)


class TestFrameSequence:
    def _seq(self, n=3, h=32, w=48):
        return FrameSequence(
            frames=[Frame(_luma(h, w, i)) for i in range(n)], fps=30.0, name="t"
        )

    def test_len_iter_getitem(self):
        seq = self._seq(4)
        assert len(seq) == 4
        assert seq[2].luma[0, 0] == 2
        assert [f.luma[0, 0] for f in seq] == [0, 1, 2, 3]

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one frame"):
            FrameSequence(frames=[], fps=30)

    def test_rejects_mixed_resolution(self):
        with pytest.raises(ValueError, match="resolution"):
            FrameSequence(
                frames=[Frame(_luma(32, 48)), Frame(_luma(32, 32))], fps=30
            )

    def test_rejects_bad_fps(self):
        with pytest.raises(ValueError):
            FrameSequence(frames=[Frame(_luma(16, 16))], fps=0)

    def test_lumas_stack(self):
        stack = self._seq(3).lumas()
        assert stack.shape == (3, 32, 48)
        assert stack[1, 0, 0] == 1

    def test_clip(self):
        clipped = self._seq(5).clip(2)
        assert len(clipped) == 2

    def test_downscale_sequence(self):
        small = self._seq(2).downscale(2)
        assert small.resolution == (24, 16)
        assert "1/2" in small.name

    def test_from_lumas(self):
        seq = FrameSequence.from_lumas([_luma(16, 16), _luma(16, 16)], fps=25)
        assert len(seq) == 2
        assert seq.fps == 25
