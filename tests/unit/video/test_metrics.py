"""Unit tests for repro.video.metrics."""

import numpy as np
import pytest

from repro.video.frame import Frame, FrameSequence
from repro.video.metrics import (
    bitrate_kbps,
    estimate_entropy,
    psnr,
    psnr_sequence,
)
from repro.video.synthetic import SceneSpec, generate_scene


def _plane(value=128, shape=(32, 32)):
    return np.full(shape, value, dtype=np.uint8)


class TestPsnr:
    def test_identical_is_max(self):
        assert psnr(_plane(), _plane()) == 100.0

    def test_known_mse(self):
        a = _plane(100)
        b = _plane(110)  # MSE = 100
        expected = 10 * np.log10(255**2 / 100)
        assert psnr(a, b) == pytest.approx(expected)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 256, (16, 16)).astype(np.uint8)
        b = rng.integers(0, 256, (16, 16)).astype(np.uint8)
        assert psnr(a, b) == pytest.approx(psnr(b, a))

    def test_accepts_frames(self):
        assert psnr(Frame(_plane()), Frame(_plane())) == 100.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            psnr(_plane(), _plane(shape=(16, 16)))

    def test_worse_distortion_lower_psnr(self):
        a = _plane(100)
        assert psnr(a, _plane(105)) > psnr(a, _plane(130))


class TestPsnrSequence:
    def _seq(self, values):
        return FrameSequence.from_lumas([_plane(v) for v in values], fps=30)

    def test_pooled_mse(self):
        ref = self._seq([100, 100])
        out = self._seq([100, 110])  # pooled MSE = 50
        expected = 10 * np.log10(255**2 / 50)
        assert psnr_sequence(ref, out) == pytest.approx(expected)

    def test_identical(self):
        s = self._seq([1, 2, 3])
        assert psnr_sequence(s, s) == 100.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            psnr_sequence(self._seq([1]), self._seq([1, 2]))


class TestBitrate:
    def test_known_value(self):
        # 30 frames at 30 fps = 1 second; 1_000_000 bits -> 1000 kbps.
        assert bitrate_kbps(1_000_000, 30, 30.0) == pytest.approx(1000.0)

    def test_rejects_negative_bits(self):
        with pytest.raises(ValueError):
            bitrate_kbps(-1, 30, 30.0)

    def test_rejects_zero_frames(self):
        with pytest.raises(ValueError):
            bitrate_kbps(100, 0, 30.0)


class TestEstimateEntropy:
    def _clip(self, motion, detail):
        return generate_scene(
            SceneSpec(
                width=64, height=48, n_frames=5, seed=9,
                motion_magnitude=motion, texture_detail=detail,
                noise_level=0.05 + 0.2 * motion, name="e",
            )
        )

    def test_complex_scores_higher(self):
        calm = estimate_entropy(self._clip(0.05, 0.1))
        busy = estimate_entropy(self._clip(0.9, 0.9))
        assert busy > calm * 2

    def test_nonnegative(self):
        flat = FrameSequence.from_lumas([_plane(), _plane()], fps=30)
        assert estimate_entropy(flat) == pytest.approx(0.0, abs=1e-9)

    def test_single_frame_supported(self):
        clip = FrameSequence.from_lumas([_plane(7)], fps=30)
        assert estimate_entropy(clip) >= 0.0

    def test_catalog_ordering_preserved(self):
        # The synthetic stand-ins must realize the published complexity
        # ordering at least coarsely: desktop << cricket << hall.
        from repro.video.vbench import load_video

        e = {
            name: estimate_entropy(load_video(name, width=64, height=48, n_frames=5))
            for name in ("desktop", "cricket", "hall")
        }
        assert e["desktop"] < e["cricket"] < e["hall"]
