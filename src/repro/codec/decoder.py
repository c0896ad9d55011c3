"""The decoder: parses the bitstream back into frames.

Mirrors the encoder's reconstruction path exactly — same prediction
fetches, same dequantization and inverse transform, same deblocking —
so ``decode(encode(video)).frames == encoder reconstruction`` holds
bit-exactly (verified by the round-trip integration tests). The decoding
stage is deterministic and much cheaper than encoding, as the paper notes
in §II-A; like the encoder it reports its kernel activity to an optional
:class:`~repro.trace.recorder.Tracer` so a *full transcode* (decode +
re-encode) can be profiled end to end.

**Parsing** goes through one :class:`~repro.codec.entropy.BitReader`
(see :mod:`repro.codec.entropy` for the reader contract). There is one
decoder for both kernel backends: scalar syntax elements are
``read_ue`` / ``read_se`` calls, and coefficients are read a batch at a
time — the 16 luma blocks of a macroblock, the 16 (mode, block) pairs of
an intra-4x4 macroblock, the 4 blocks of a chroma 8x8 — and dequantised
and inverse-transformed in one call, so only predict + add + clip run
per block. Under ``vectorized`` the reader serves those calls from a
token table it builds one :data:`~repro.codec.entropy.TOKEN_WINDOW_BYTES`
window at a time; under ``reference`` the same calls read bit by bit.
Frames, metadata and traced kernel calls are identical either way.

**Hostile input.** Whatever the bytes, :func:`decode` either returns
frames of the geometry the header declares or raises
:class:`~repro.codec.entropy.BitstreamError` (a ``ValueError``; its
subclass ``TruncatedBitstreamError`` is also an ``EOFError``). Every
value read from the stream is checked before it is used as an index, an
enum, a QP or a fetch position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.codec.chroma import decode_chroma_plane
from repro.codec.deblock import deblock_plane
from repro.codec.entropy import (
    BitReader,
    BitstreamError,
    decode_blocks,
    decode_tagged_blocks,
    read_se,
    read_ue,
)
from repro.codec.intra import predict_16x16
from repro.codec.motion import PaddedReference, fetch_prediction, predict_mv
from repro.codec.quant import dequantize
from repro.codec.transform import inverse_4x4, unblockify_16x16
from repro.codec.types import (
    FRAME_TYPE_IDS,
    MODE_IDS,
    FrameType,
    IntraMode,
    MBMode,
    MotionVector,
)
from repro.trace.recorder import NullTracer, Tracer
from repro.video.frame import Frame, FrameSequence

__all__ = ["Decoder", "DecodeResult", "decode"]

_ID_TO_FRAME_TYPE = {i: ftype for ftype, i in FRAME_TYPE_IDS.items()}
_INTRA_MODE_IDS = frozenset(map(int, IntraMode))
_SKIP, _INTER16, _INTER8, _INTER4, _BI, _INTRA16, _INTRA4 = (
    MODE_IDS[mode]
    for mode in (
        MBMode.SKIP, MBMode.INTER_16X16, MBMode.INTER_8X8, MBMode.INTER_4X4,
        MBMode.BI, MBMode.INTRA_16X16, MBMode.INTRA_4X4,
    )
)

_REF_PAD = 88  # >= encoder's merange + 24 upper bound (64 + 24)
_MAX_QP = 51


def _checked_qp(qp: int) -> int:
    if not 0 <= qp <= _MAX_QP:
        raise BitstreamError(f"QP {qp} outside [0, {_MAX_QP}]")
    return qp


def _check_fetch(ref: PaddedReference, y: int, x: int, size: int = 16) -> None:
    """Reject a ``size`` x ``size`` fetch at unpadded ``(y, x)`` that
    leaves ``ref``'s padded border.

    One spare row and column are demanded on the far side: a fractional
    motion vector interpolates from them. An encoder pads by its own
    ``merange + 24`` and searches within ``merange``, so no vector it
    writes comes near the limit; without the check a negative slice
    start would wrap around silently.
    """
    if not (
        -ref.pad <= y
        and y + size < ref.height + ref.pad
        and -ref.pad <= x
        and x + size < ref.width + ref.pad
    ):
        raise BitstreamError("motion vector points outside the reference border")


def _fetch(ref: PaddedReference, y: int, x: int, mv: MotionVector) -> np.ndarray:
    """The checked 16x16 prediction fetch for a quarter-pel vector."""
    fx, fy = mv.full_pel
    _check_fetch(ref, y + fy, x + fx)
    return fetch_prediction(ref, y, x, mv.dx, mv.dy)


@dataclass
class DecodeResult:
    """Decoded clip plus per-frame metadata."""

    video: FrameSequence
    frame_types: list[FrameType]  # display order
    frame_qps: list[int]  # display order


@dataclass
class _Anchor:
    display_index: int
    padded: PaddedReference
    chroma: tuple[np.ndarray, np.ndarray] | None = None


class Decoder:
    """Stateless-between-calls bitstream decoder."""

    def __init__(self, *, tracer: Tracer | None = None) -> None:
        self.tracer = tracer if tracer is not None else NullTracer()

    def decode(self, bitstream: bytes) -> DecodeResult:
        reader = BitReader(bitstream)
        width = read_ue(reader)
        height = read_ue(reader)
        fps = read_ue(reader) / 1000.0
        n_frames = read_ue(reader)
        deblock_enabled = read_ue(reader) == 1
        deblock_offset = read_se(reader)
        chroma_active = read_ue(reader) == 1
        if width <= 0 or height <= 0 or n_frames <= 0 or fps <= 0:
            raise BitstreamError("corrupt stream header")
        # Sanity bounds: a hostile or damaged header must not drive huge
        # allocations or unbounded decode loops.
        if width > 16384 or height > 16384 or n_frames > 100_000 or fps > 1000:
            raise BitstreamError("implausible stream header (corrupt or hostile)")
        chroma_shape = ((height + 1) // 2, (width + 1) // 2)

        pad_h = (height + 15) // 16 * 16
        pad_w = (width + 15) // 16 * 16
        n_mb_y, n_mb_x = pad_h // 16, pad_w // 16

        decoded: dict[int, np.ndarray] = {}
        decoded_chroma: dict[int, tuple[np.ndarray, np.ndarray] | None] = {}
        types: dict[int, FrameType] = {}
        qps: dict[int, int] = {}
        anchors: list[_Anchor] = []

        for _ in range(n_frames):
            disp_idx = read_ue(reader)
            ftype = _ID_TO_FRAME_TYPE.get(read_ue(reader))
            if ftype is None:
                raise BitstreamError("unknown frame type id")
            base_qp = _checked_qp(read_ue(reader))
            self.tracer.begin_frame(ftype.value, disp_idx)
            recon = self._decode_frame(
                reader, ftype, base_qp, disp_idx, anchors, n_mb_y, n_mb_x, pad_w
            )
            chroma: tuple[np.ndarray, np.ndarray] | None = None
            if chroma_active:
                chroma = self._decode_chroma(
                    reader, chroma_shape, ftype, disp_idx, anchors, base_qp
                )
            if deblock_enabled:
                recon, n_edges = deblock_plane(
                    recon, base_qp, offset=deblock_offset
                )
                self.tracer.kernel("deblock", iters=n_edges)
            decoded[disp_idx] = recon
            decoded_chroma[disp_idx] = chroma
            types[disp_idx] = ftype
            qps[disp_idx] = base_qp
            if ftype is not FrameType.B:
                anchors.append(
                    _Anchor(
                        disp_idx,
                        PaddedReference.from_plane(recon, _REF_PAD),
                        chroma,
                    )
                )
                anchors.sort(key=lambda a: a.display_index)

        if sorted(decoded) != list(range(n_frames)):
            raise BitstreamError("stream is missing frames")
        frames = []
        for i in range(n_frames):
            chroma = decoded_chroma[i]
            cropped = None
            if chroma is not None:
                cropped = (
                    chroma[0][: chroma_shape[0], : chroma_shape[1]],
                    chroma[1][: chroma_shape[0], : chroma_shape[1]],
                )
            frames.append(Frame(decoded[i][:height, :width], chroma=cropped))
        self.tracer.flush()
        return DecodeResult(
            video=FrameSequence(frames=frames, fps=fps, name="decoded"),
            frame_types=[types[i] for i in range(n_frames)],
            frame_qps=[qps[i] for i in range(n_frames)],
        )

    def _decode_chroma(
        self,
        reader: BitReader,
        shape: tuple[int, int],
        ftype: FrameType,
        disp_idx: int,
        anchors: list[_Anchor],
        base_qp: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Mirror of Encoder._encode_chroma."""
        ref_chroma = None
        if ftype is not FrameType.I:
            past = [
                a for a in anchors
                if a.display_index < disp_idx and a.chroma is not None
            ]
            if past:
                ref_chroma = max(past, key=lambda a: a.display_index).chroma
        planes = []
        for i in range(2):
            prev = ref_chroma[i] if ref_chroma is not None else None
            planes.append(decode_chroma_plane(reader, shape, prev, base_qp))
        return (planes[0], planes[1])

    # ------------------------------------------------------------------
    def _decode_frame(
        self,
        reader: BitReader,
        ftype: FrameType,
        base_qp: int,
        disp_idx: int,
        anchors: list[_Anchor],
        n_mb_y: int,
        n_mb_x: int,
        pad_w: int,
    ) -> np.ndarray:
        recon = np.zeros((n_mb_y * 16, pad_w), dtype=np.uint8)
        past = [a for a in anchors if a.display_index < disp_idx]
        past.sort(key=lambda a: -a.display_index)
        future = [a for a in anchors if a.display_index > disp_idx]
        ref_l1 = min(future, key=lambda a: a.display_index) if future else None
        if not past and anchors:
            past = [anchors[0]]
        mv_grid: list[list[MotionVector | None]] = [
            [None] * n_mb_x for _ in range(n_mb_y)
        ]
        for mb_y in range(n_mb_y):
            for mb_x in range(n_mb_x):
                self._decode_mb(
                    reader, recon, mv_grid, mb_y, mb_x, base_qp, past, ref_l1
                )
        return recon

    def _decode_mb(
        self,
        reader: BitReader,
        recon: np.ndarray,
        mv_grid: list[list[MotionVector | None]],
        mb_y: int,
        mb_x: int,
        base_qp: int,
        past: list[_Anchor],
        ref_l1: _Anchor | None,
    ) -> None:
        y, x = mb_y * 16, mb_x * 16
        mode_id = read_ue(reader)
        pred_mv = predict_mv(mv_grid, mb_y, mb_x)

        if mode_id == _SKIP:
            if not past:
                raise BitstreamError("SKIP macroblock with no reference available")
            fx, fy = pred_mv.full_pel
            _check_fetch(past[0].padded, y + fy, x + fx)
            pred = past[0].padded.block(y + fy, x + fx).astype(np.float64)
            recon[y : y + 16, x : x + 16] = np.clip(np.round(pred), 0, 255).astype(
                np.uint8
            )
            mv_grid[mb_y][mb_x] = pred_mv
            return

        if mode_id == _INTRA4:
            qp = _checked_qp(base_qp + read_se(reader))
            self._decode_intra4(reader, recon, y, x, qp)
            mv_grid[mb_y][mb_x] = None
            return

        mvs: list[MotionVector] = []
        mv1: MotionVector | None = None
        intra_mode = IntraMode.DC
        if mode_id == _INTRA16:
            intra_id = read_ue(reader)
            if intra_id not in _INTRA_MODE_IDS:
                raise BitstreamError("unknown intra 16x16 mode id")
            intra_mode = IntraMode(intra_id)
        elif mode_id == _BI:
            ref0 = read_ue(reader)
            mvs = [
                MotionVector(
                    read_se(reader) + pred_mv.dx, read_se(reader) + pred_mv.dy, ref0
                )
            ]
            mv1 = MotionVector(
                read_se(reader) + pred_mv.dx, read_se(reader) + pred_mv.dy, 0
            )
        elif mode_id in (_INTER16, _INTER8, _INTER4):
            ref = read_ue(reader)
            n_mvs = {_INTER16: 1, _INTER8: 4, _INTER4: 16}[mode_id]
            for _ in range(n_mvs):
                mvs.append(
                    MotionVector(
                        read_se(reader) + pred_mv.dx,
                        read_se(reader) + pred_mv.dy,
                        ref,
                    )
                )
        else:
            raise BitstreamError(f"unsupported macroblock mode id {mode_id}")

        qp = _checked_qp(base_qp + read_se(reader))
        levels = decode_blocks(reader, 16)

        if mode_id == _INTRA16:
            prediction = predict_16x16(recon, y, x, intra_mode).astype(np.float64)
        elif mode_id == _BI:
            if mv1 is None or ref_l1 is None or mvs[0].ref >= len(past):
                raise BitstreamError("BI macroblock references a missing anchor")
            pred0 = _fetch(past[mvs[0].ref].padded, y, x, mvs[0])
            pred1 = _fetch(ref_l1.padded, y, x, mv1)
            prediction = (pred0 + pred1) / 2.0
        else:
            if mvs[0].ref >= len(past):
                raise BitstreamError("inter macroblock references a missing anchor")
            ref_plane = past[mvs[0].ref].padded
            if mode_id == _INTER16:
                prediction = _fetch(ref_plane, y, x, mvs[0])
            else:
                size = 8 if mode_id == _INTER8 else 4
                n = 16 // size
                prediction = np.zeros((16, 16), dtype=np.float64)
                for i, mv in enumerate(mvs):
                    py, px = divmod(i, n)
                    fx, fy = mv.full_pel
                    _check_fetch(
                        ref_plane, y + py * size + fy, x + px * size + fx, size
                    )
                    prediction[
                        py * size : (py + 1) * size, px * size : (px + 1) * size
                    ] = ref_plane.block(
                        y + py * size + fy, x + px * size + fx, size
                    ).astype(np.float64)

        residual = unblockify_16x16(inverse_4x4(dequantize(levels, qp)))
        recon[y : y + 16, x : x + 16] = np.clip(
            np.round(prediction + residual), 0, 255
        ).astype(np.uint8)
        mv_grid[mb_y][mb_x] = mvs[0] if mvs else None
        if self.tracer.enabled:
            # Decoding work: entropy parse + inverse transform + MC copy.
            n_tokens = int(np.count_nonzero(levels))
            self.tracer.kernel("entropy_coeff", iters=max(n_tokens, 1))
            self.tracer.kernel("idct4", iters=16)
            self.tracer.kernel("mc_copy", iters=16)

    def _decode_intra4(
        self, reader: BitReader, recon: np.ndarray, y0: int, x0: int, qp: int
    ) -> None:
        """4x4 intra decoding (mirrors Encoder._emit_intra4): the parse
        and the residuals are batched; each block predicts from the
        reconstruction its predecessors just wrote, so that stays a loop."""
        modes, levels = decode_tagged_blocks(reader, 16)
        residuals = inverse_4x4(dequantize(levels, qp))
        for i, mode in enumerate(modes):
            y = y0 + (i >> 2) * 4
            x = x0 + (i & 3) * 4
            pred = self._intra4_prediction(recon, y, x, mode)
            recon[y : y + 4, x : x + 4] = np.clip(
                np.round(pred + residuals[i]), 0, 255
            ).astype(np.uint8)

    @staticmethod
    def _intra4_prediction(
        recon: np.ndarray, y: int, x: int, mode: int
    ) -> np.ndarray:
        top = recon[y - 1, x : x + 4].astype(np.float64) if y > 0 else None
        left = recon[y : y + 4, x - 1].astype(np.float64) if x > 0 else None
        if mode == 1 and top is not None:
            return np.tile(top, (4, 1))
        if mode == 2 and left is not None:
            return np.tile(left[:, None], (1, 4))
        if top is not None and left is not None:
            dc = (top.sum() + left.sum()) / 8.0
        elif top is not None:
            dc = top.mean()
        elif left is not None:
            dc = left.mean()
        else:
            dc = 128.0
        return np.full((4, 4), dc)


def decode(bitstream: bytes, *, tracer: Tracer | None = None) -> DecodeResult:
    """Convenience wrapper around :class:`Decoder`."""
    return Decoder(tracer=tracer).decode(bitstream)
