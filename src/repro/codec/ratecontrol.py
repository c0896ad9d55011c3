"""Rate control: CRF with adaptive quantization, the mode the paper runs.

The paper encodes every clip at a constant rate factor (§III-A). A
frame's base QP is ``crf`` shifted by its frame type's offset
(:func:`frame_qp`); adaptive quantization (``aq-mode 1``) then applies a
variance-based per-macroblock offset on top (:func:`mb_qp`). Neither
depends on bits already spent, so rate control holds no state.
"""

from __future__ import annotations

import numpy as np

from repro._util import clamp
from repro.codec.types import FrameType

__all__ = ["frame_qp", "mb_qp"]

# Frame-type QP offsets (x264's ip_factor/pb_factor in QP units).
_TYPE_OFFSET = {FrameType.I: -3, FrameType.P: 0, FrameType.B: +2}

_MIN_QP = 0
_MAX_QP = 51


def frame_qp(crf: int, frame_type: FrameType) -> int:
    """Base QP of a frame: ``crf`` plus the frame type's offset, clamped."""
    qp = float(crf) + _TYPE_OFFSET[frame_type]
    return int(clamp(round(qp), _MIN_QP, _MAX_QP))


def mb_qp(aq_mode: int, base_qp: int, mb_variance: float, mean_variance: float) -> int:
    """Per-macroblock QP: ``base_qp`` plus the adaptive-quantization offset."""
    qp = float(base_qp)
    if aq_mode == 1 and mean_variance > 0 and mb_variance > 0:
        # x264 AQ: flat blocks get lower QP (they show artifacts most),
        # busy blocks can hide more quantization noise.
        offset = 1.0 * np.log2((mb_variance + 1.0) / (mean_variance + 1.0))
        qp += clamp(offset, -6.0, 6.0)
    return int(clamp(round(qp), _MIN_QP, _MAX_QP))
