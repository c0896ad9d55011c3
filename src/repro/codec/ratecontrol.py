"""Rate control: the six x264 modes described in paper §II-B1.

- ``cqp``       constant QP (per frame-type offsets only),
- ``crf``       constant rate factor: quality-targeted, complexity-adaptive,
- ``abr``       single-pass average bitrate with feedback,
- ``2pass-abr`` two-pass ABR: first pass measures complexity, second pass
                allocates bits proportionally (the encoder runs twice),
- ``cbr``       constant bitrate, enforced at *macroblock* granularity
                (the only mode the paper notes operates per-macroblock),
- ``vbv``       constrained encoding: CRF base capped by a leaky-bucket
                buffer model.

Adaptive quantization (``aq-mode 1``) applies a variance-based per-MB QP
offset on top of whatever mode is active.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import clamp
from repro.codec.options import EncoderOptions
from repro.codec.types import FrameType

__all__ = ["RateController", "FirstPassStats"]

# Frame-type QP offsets (x264's ip_factor/pb_factor in QP units).
_TYPE_OFFSET = {FrameType.I: -3, FrameType.P: 0, FrameType.B: +2}

_MIN_QP = 0
_MAX_QP = 51


@dataclass
class FirstPassStats:
    """Per-frame complexity measured by a first encoding pass."""

    frame_costs: list[float] = field(default_factory=list)

    def add(self, cost: float) -> None:
        self.frame_costs.append(max(cost, 1.0))

    @property
    def mean_cost(self) -> float:
        if not self.frame_costs:
            return 1.0
        return float(np.mean(self.frame_costs))


class RateController:
    """Stateful per-encode rate controller.

    The encoder asks for a frame-level base QP before coding each frame
    (:meth:`frame_qp`), may ask for per-MB adjustments
    (:meth:`mb_qp`), and reports actual bits afterwards (:meth:`update`).
    """

    def __init__(
        self,
        options: EncoderOptions,
        *,
        fps: float,
        n_mbs_per_frame: int,
        first_pass: FirstPassStats | None = None,
    ) -> None:
        self.options = options
        self.fps = fps
        self.n_mbs_per_frame = max(n_mbs_per_frame, 1)
        self.first_pass = first_pass
        self._frame_index = 0
        self._bits_spent = 0.0
        self._qp_adapt = 0.0  # ABR/CBR feedback term
        # VBV leaky bucket state.
        self._vbv_fill = (options.vbv_bufsize_kbits * 1000.0) / 2.0
        # Per-frame state for CBR macroblock control.
        self._frame_bits_so_far = 0.0
        self._frame_target_bits = 0.0
        if options.rc_mode == "2pass-abr" and first_pass is None:
            raise ValueError("2pass-abr requires FirstPassStats from pass one")

    # ------------------------------------------------------------------
    # frame level
    # ------------------------------------------------------------------
    def _crf_base(self) -> float:
        return float(self.options.crf)

    def _target_bits_per_frame(self) -> float:
        return self.options.bitrate_kbps * 1000.0 / self.fps

    def frame_qp(self, frame_type: FrameType, complexity: float) -> int:
        """Base QP for the next frame.

        ``complexity`` is the lookahead cost estimate for this frame (any
        positive proxy; the encoder uses probe SAD).
        """
        mode = self.options.rc_mode
        offset = _TYPE_OFFSET[frame_type]
        if mode == "cqp":
            qp = self.options.qp + offset
        elif mode == "crf":
            qp = self._crf_base() + offset
        elif mode == "vbv":
            qp = self._crf_base() + offset + self._vbv_pressure()
        elif mode in ("abr", "cbr"):
            qp = 26 + offset + self._qp_adapt
        else:  # 2pass-abr
            assert self.first_pass is not None
            mean = self.first_pass.mean_cost
            idx = min(self._frame_index, len(self.first_pass.frame_costs) - 1)
            cost = self.first_pass.frame_costs[idx] if idx >= 0 else mean
            # Complex frames get more bits => relatively lower QP shift,
            # then the global feedback term steers the average rate.
            qp = 26 + offset + self._qp_adapt - 2.0 * np.log2(cost / mean)
        del complexity  # reserved for finer-grained adaptation
        self._frame_target_bits = self._target_bits_per_frame()
        self._frame_bits_so_far = 0.0
        return int(clamp(round(qp), _MIN_QP, _MAX_QP))

    def _vbv_pressure(self) -> float:
        """Extra QP demanded by the VBV buffer constraint."""
        if self.options.vbv_maxrate_kbps <= 0 or self.options.vbv_bufsize_kbits <= 0:
            return 0.0
        bufsize = self.options.vbv_bufsize_kbits * 1000.0
        fill_frac = self._vbv_fill / bufsize
        # Near-full buffer (we've been spending over maxrate): raise QP.
        if fill_frac > 0.8:
            return 8.0 * (fill_frac - 0.8) / 0.2
        return 0.0

    # ------------------------------------------------------------------
    # macroblock level
    # ------------------------------------------------------------------
    def mb_qp(self, base_qp: int, mb_variance: float, mean_variance: float) -> int:
        """Per-macroblock QP: adaptive quantization plus CBR steering."""
        qp = float(base_qp)
        if self.options.aq_mode == 1 and mean_variance > 0 and mb_variance > 0:
            # x264 AQ: flat blocks get lower QP (they show artifacts most),
            # busy blocks can hide more quantization noise.
            offset = 1.0 * np.log2((mb_variance + 1.0) / (mean_variance + 1.0))
            qp += clamp(offset, -6.0, 6.0)
        if self.options.rc_mode == "cbr" and self._frame_target_bits > 0:
            used_frac = self._frame_bits_so_far / self._frame_target_bits
            # Ahead of budget: raise QP immediately (macroblock granularity).
            if used_frac > 1.0:
                qp += 4.0 * min(used_frac - 1.0, 1.0)
        return int(clamp(round(qp), _MIN_QP, _MAX_QP))

    def note_mb_bits(self, bits: int) -> None:
        """CBR feedback within the frame."""
        self._frame_bits_so_far += bits

    # ------------------------------------------------------------------
    # feedback
    # ------------------------------------------------------------------
    def update(self, frame_bits: int) -> None:
        """Report actual bits for the just-coded frame."""
        self._frame_index += 1
        self._bits_spent += frame_bits
        mode = self.options.rc_mode
        if mode in ("abr", "cbr", "2pass-abr"):
            target = self._target_bits_per_frame() * self._frame_index
            if target > 0 and self._bits_spent > 0:
                error = np.log2(self._bits_spent / target)
                # Proportional controller: 3 QP per doubling of overshoot.
                self._qp_adapt = float(clamp(3.0 * error, -12.0, 12.0))
        if mode == "vbv" and self.options.vbv_maxrate_kbps > 0:
            rate_bits = self.options.vbv_maxrate_kbps * 1000.0 / self.fps
            self._vbv_fill = max(
                0.0,
                min(
                    self._vbv_fill + frame_bits - rate_bits,
                    self.options.vbv_bufsize_kbits * 1000.0,
                ),
            )
