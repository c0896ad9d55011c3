"""Video quality and size metrics: PSNR, bitrate, entropy estimate.

These are the three corners of the paper's Figure 2 triangle — quality
(PSNR in dB), size (bitrate in Kbps), and speed (time, measured elsewhere)
— plus a vbench-style entropy estimator used to sanity-check that our
synthetic stand-ins preserve the published complexity ordering.
"""

from __future__ import annotations

import numpy as np

from repro._util import check_positive
from repro.video.frame import Frame, FrameSequence

__all__ = ["psnr", "psnr_sequence", "bitrate_kbps", "estimate_entropy"]

_MAX_PSNR_DB = 100.0
"""PSNR reported for identical inputs (MSE of zero)."""


def psnr(reference: np.ndarray | Frame, test: np.ndarray | Frame) -> float:
    """Peak signal-to-noise ratio between two 8-bit luma planes, in dB."""
    ref = reference.luma if isinstance(reference, Frame) else np.asarray(reference)
    out = test.luma if isinstance(test, Frame) else np.asarray(test)
    if ref.shape != out.shape:
        raise ValueError(f"shape mismatch {ref.shape} vs {out.shape}")
    mse = float(np.mean((ref.astype(np.float64) - out.astype(np.float64)) ** 2))
    if mse == 0.0:
        return _MAX_PSNR_DB
    return float(10.0 * np.log10(255.0**2 / mse))


def psnr_sequence(reference: FrameSequence, test: FrameSequence) -> float:
    """Sequence PSNR: computed from the pooled MSE over all frames."""
    if len(reference) != len(test):
        raise ValueError(f"length mismatch {len(reference)} vs {len(test)}")
    total_sq = 0.0
    total_px = 0
    for ref, out in zip(reference, test):
        diff = ref.luma.astype(np.float64) - out.luma.astype(np.float64)
        total_sq += float(np.sum(diff * diff))
        total_px += diff.size
    mse = total_sq / total_px
    if mse == 0.0:
        return _MAX_PSNR_DB
    return float(10.0 * np.log10(255.0**2 / mse))


def bitrate_kbps(total_bits: int, n_frames: int, fps: float) -> float:
    """Average bitrate in kilobits/second for ``total_bits`` over a clip."""
    check_positive("n_frames", n_frames)
    check_positive("fps", fps)
    if total_bits < 0:
        raise ValueError("total_bits must be >= 0")
    seconds = n_frames / fps
    return total_bits / seconds / 1000.0


def estimate_entropy(sequence: FrameSequence) -> float:
    """A vbench-style complexity score for a clip, on roughly a 0-8 scale.

    vbench defines entropy as the bits needed for visually lossless
    encoding. We approximate it with the information content of the
    motion-compensated-free temporal residual plus spatial gradients: clips
    with heavy motion and fine texture need many bits, static smooth clips
    need few. The absolute scale is calibrated so that the synthetic
    catalog spans roughly the published 0.2-7.7 range.
    """
    lumas = sequence.lumas().astype(np.float64)
    # Temporal complexity: mean absolute frame difference.
    if len(sequence) > 1:
        temporal = float(np.mean(np.abs(np.diff(lumas, axis=0))))
    else:
        temporal = 0.0
    # Spatial complexity: mean gradient magnitude.
    gy = np.abs(np.diff(lumas, axis=1)).mean()
    gx = np.abs(np.diff(lumas, axis=2)).mean()
    spatial = float((gx + gy) / 2.0)
    # Empirical calibration: desktop-like content scores ~0.2, holi-like ~7.
    score = 0.18 * temporal + 0.08 * spatial
    return float(score)
