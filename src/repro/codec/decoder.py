"""The decoder: parses the bitstream back into frames.

Mirrors the encoder's reconstruction path exactly — same prediction
fetches, same dequantization and inverse transform, same deblocking —
so ``decode(encode(video)).frames == encoder reconstruction`` holds
bit-exactly (verified by the round-trip integration tests). The decoding
stage is deterministic and much cheaper than encoding, as the paper notes
in §II-A; like the encoder it reports its kernel activity to an optional
:class:`~repro.trace.recorder.Tracer` so a *full transcode* (decode +
re-encode) can be profiled end to end.

A frame's luma is decoded in **two stages**. *Parse* walks the
macroblock layer in stream order through one
:class:`~repro.codec.entropy.BitReader` and records it as columns —
modes, motion vectors, QPs, intra modes, and (an
:class:`~repro.codec.entropy.BlockBatches`) where each coefficient batch
sits in the reader's token table. *Reconstruct* places the frame's
coefficients (a scatter per token table), dequantises and
inverse-transforms them in one call, then predicts, adds and clips in
macroblock order: intra-4x4 a block anti-diagonal at a time, a
fractional vector from only the 17x17 patch its block reads. The
per-macroblock decoder it replaced and a bit-serial reader are test
oracles (``tests/oracles.py``).

**Hostile input.** Whatever the bytes, :func:`decode` either returns
frames of the geometry the header declares or raises
:class:`~repro.codec.entropy.BitstreamError` (a ``ValueError``; its
subclass ``TruncatedBitstreamError`` is also an ``EOFError``). Parse
checks every value where it reads it; reconstruction raises nothing. The
one later check, zero runs past a block's end, is made before any later
error is let through, so the first error in stream order is raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.codec.deblock import deblock_plane
from repro.codec.entropy import (
    BitReader,
    BitstreamError,
    BlockBatches,
    read_se,
    read_ue,
)
from repro.codec.intra import _DIAGONALS, _EDGES, _neighbor_patch, predict_16x16
from repro.codec.motion import PaddedReference, predict_mv
from repro.codec.quant import qstep
from repro.codec.transform import inverse_4x4
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
_INTRA4_MODE_IDS = frozenset((0, 1, 2))  # DC, V, H
_SKIP, _INTER16, _INTER8, _INTER4, _BI, _INTRA16, _INTRA4 = (
    MODE_IDS[mode]
    for mode in (
        MBMode.SKIP, MBMode.INTER_16X16, MBMode.INTER_8X8, MBMode.INTER_4X4,
        MBMode.BI, MBMode.INTRA_16X16, MBMode.INTRA_4X4,
    )
)
#: Inter mode -> its partitions' (y, x) offsets in coding order, and size.
_PARTITIONS = {
    mode: ([(py, px) for py in range(0, 16, size) for px in range(0, 16, size)], size)
    for mode, size in ((_INTER16, 16), (_INTER8, 8), (_INTER4, 4))
}
_N_MVS = {_INTER16: 1, _INTER8: 4, _INTER4: 16, _BI: 2}  # BI: L0, then L1

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
    """The float64 16x16 prediction for a quarter-pel vector, interpolated in
    the 17x17 patch it reads by :meth:`PaddedReference.half_pel_block`'s form."""
    fx, fy = mv.full_pel
    a = ref.block(y + fy, x + fx, 17).astype(np.float64)
    if mv.dx & 3:
        f = (mv.dx & 3) * 0.25
        a = a[:, :-1] * (1 - f) + a[:, 1:] * f
    if mv.dy & 3:
        f = (mv.dy & 3) * 0.25
        a = a[:-1] * (1 - f) + a[1:] * f
    return a[:16, :16]


def _check_inter(
    mode_id: int,
    mvs: list[MotionVector],
    y: int,
    x: int,
    past: list[_Anchor],
    ref_l1: _Anchor | None,
) -> None:
    """Reject inter vectors that name a missing anchor or leave its border."""
    ref = mvs[0].ref
    if mode_id == _BI:
        if ref_l1 is None or ref >= len(past):
            raise BitstreamError("BI macroblock references a missing anchor")
        for anchor, mv in zip((past[ref], ref_l1), mvs):
            fx, fy = mv.full_pel
            _check_fetch(anchor.padded, y + fy, x + fx)
        return
    if ref >= len(past):
        raise BitstreamError("inter macroblock references a missing anchor")
    offsets, size = _PARTITIONS[mode_id]
    for (py, px), mv in zip(offsets, mvs):
        fx, fy = mv.full_pel
        _check_fetch(past[ref].padded, y + py + fy, x + px + fx, size)


def _intra4_maps(top_edge: bool, left_edge: bool) -> np.ndarray:
    """``[block, mode]`` -> the map from an intra-4x4 block's neighbours
    (top 0-3, left 0-3, a constant 1) to its 16 pixels on the given frame
    edges: DC (0) averages the neighbours that exist (128 if none); V (1)
    with no top row and H (2) with no left column are DC."""
    maps = np.zeros((16, 3, 16, 9))
    pixel = np.arange(16)
    v_map, h_map = np.zeros((2, 16, 9))
    v_map[pixel, pixel % 4] = h_map[pixel, 4 + pixel // 4] = 1.0
    for block, dc in enumerate(maps[:, 0]):
        top, left = not (top_edge and block < 4), not (left_edge and block % 4 == 0)
        dc[:, :8] = np.repeat([top, left], 4) / max(4 * (top + left), 1)
        dc[:, 8] = 0.0 if top or left else 128.0
        maps[block, 1] = v_map if top else dc
        maps[block, 2] = h_map if left else dc
    return maps


def _neighbour_index(top_at: tuple, left_at: tuple) -> tuple[np.ndarray, ...]:
    """A diagonal's ``(k, 9)`` neighbour vectors as ``_neighbor_patch``
    indices; the patch's unused corner holds the constant."""
    top, left = np.broadcast_arrays(*top_at), np.broadcast_arrays(*left_at)
    corner = np.zeros((len(top[0]), 1), dtype=np.intp)
    return tuple(np.hstack([t, lt, corner]) for t, lt in zip(top, left))


#: ``[mb_y == 0, mb_x == 0]`` -> :func:`_intra4_maps`.
_INTRA4_MAPS = {edge: _intra4_maps(*edge) for edge in _EDGES}
_DIAGONAL_ORDER = np.concatenate([ids for ids, *_ in _DIAGONALS])
_NEIGHBOURS = [_neighbour_index(top, left) for _, top, left, *_ in _DIAGONALS]


def _intra4_wavefront(
    recon: np.ndarray, y0: int, x0: int, modes: list[int], residuals: np.ndarray
) -> None:
    """Predict, add and clip an intra-4x4 macroblock (``modes`` and
    ``residuals`` in raster order) an anti-diagonal of blocks at a time,
    as :func:`~repro.codec.intra.code_intra4_wavefront` codes it. Each
    prediction is a product with its map: at most eight pixels times 1,
    1/4 or 1/8, every partial sum exact, so it is the per-block value."""
    patch = _neighbor_patch(recon, y0, x0)
    patch[0, 0] = 1.0
    order = _DIAGONAL_ORDER
    maps = _INTRA4_MAPS[y0 == 0, x0 == 0][order, np.array(modes)[order]]
    res = residuals[order]
    lo = 0
    for (ids, _, _, cells, _), at in zip(_DIAGONALS, _NEIGHBOURS):
        hi = lo + len(ids)
        out = (maps[lo:hi] @ patch[at][:, :, None]).reshape(-1, 4, 4)
        out += res[lo:hi]
        np.rint(out, out=out)
        patch[cells] = np.minimum(np.maximum(out, 0.0, out=out), 255.0, out=out)
        lo = hi
    recon[y0 : y0 + 16, x0 : x0 + 16] = patch[1:, 1:]


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


class _FrameSyntax(NamedTuple):
    """A frame's macroblock layer as parsed: a column per syntax element, an
    entry per macroblock (``qps``: per coded one), and the coefficients."""

    modes: list[int]
    mvs: list[list[MotionVector]]  # SKIP: the predictor; BI: L0, then L1
    intra: list  # IntraMode (16x16), the 16 mode ids (4x4), or None
    qps: list[int]
    batches: BlockBatches


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
        chroma_flag = read_ue(reader)
        if width <= 0 or height <= 0 or n_frames <= 0 or fps <= 0:
            raise BitstreamError("corrupt stream header")
        # Sanity bounds: a hostile or damaged header must not drive huge
        # allocations or unbounded decode loops.
        if width > 16384 or height > 16384 or n_frames > 100_000 or fps > 1000:
            raise BitstreamError("implausible stream header (corrupt or hostile)")
        if chroma_flag != 0:
            raise BitstreamError("chroma streams are not supported (luma only)")

        pad_h = (height + 15) // 16 * 16
        pad_w = (width + 15) // 16 * 16
        n_mb_y, n_mb_x = pad_h // 16, pad_w // 16

        decoded: dict[int, np.ndarray] = {}
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
            if deblock_enabled:
                recon, n_edges = deblock_plane(
                    recon, base_qp, offset=deblock_offset
                )
                self.tracer.kernel("deblock", iters=n_edges)
            decoded[disp_idx] = recon
            types[disp_idx] = ftype
            qps[disp_idx] = base_qp
            if ftype is not FrameType.B:
                anchors.append(
                    _Anchor(disp_idx, PaddedReference.from_plane(recon, _REF_PAD))
                )
                anchors.sort(key=lambda a: a.display_index)

        if sorted(decoded) != list(range(n_frames)):
            raise BitstreamError("stream is missing frames")
        frames = [Frame(decoded[i][:height, :width]) for i in range(n_frames)]
        self.tracer.flush()
        return DecodeResult(
            video=FrameSequence(frames=frames, fps=fps, name="decoded"),
            frame_types=[types[i] for i in range(n_frames)],
            frame_qps=[qps[i] for i in range(n_frames)],
        )

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
        past = [a for a in anchors if a.display_index < disp_idx]
        past.sort(key=lambda a: -a.display_index)
        future = [a for a in anchors if a.display_index > disp_idx]
        ref_l1 = min(future, key=lambda a: a.display_index) if future else None
        if not past and anchors:
            past = [anchors[0]]
        syntax = _FrameSyntax([], [], [], [], BlockBatches(reader))
        try:
            self._parse(reader, syntax, n_mb_y, n_mb_x, base_qp, past, ref_l1)
        except BitstreamError:
            syntax.batches.levels()  # an earlier batch's overflow comes first
            raise
        recon = np.zeros((n_mb_y * 16, pad_w), dtype=np.uint8)
        self._reconstruct(syntax, recon, n_mb_x, past, ref_l1)
        return recon

    def _parse(
        self,
        reader: BitReader,
        syntax: _FrameSyntax,
        n_mb_y: int,
        n_mb_x: int,
        base_qp: int,
        past: list[_Anchor],
        ref_l1: _Anchor | None,
    ) -> None:
        """The parse stage: the macroblock layer in stream order, each value
        checked where it is read (intra-4x4 mode ids after their batch)."""
        mv_grid: list[list[MotionVector | None]] = [
            [None] * n_mb_x for _ in range(n_mb_y)
        ]
        for mb_y in range(n_mb_y):
            for mb_x in range(n_mb_x):
                y, x = mb_y * 16, mb_x * 16
                mode_id = read_ue(reader)
                pred_mv = predict_mv(mv_grid, mb_y, mb_x)
                mvs: list[MotionVector] = []
                intra = None
                if mode_id == _INTRA16:
                    intra = read_ue(reader)
                    if intra not in _INTRA_MODE_IDS:
                        raise BitstreamError("unknown intra 16x16 mode id")
                    intra = IntraMode(intra)
                elif mode_id in _N_MVS:  # BI's L1 vector carries L0's index
                    ref, dx, dy = read_ue(reader), pred_mv.dx, pred_mv.dy
                    mvs = [
                        MotionVector(read_se(reader) + dx, read_se(reader) + dy, ref)
                        for _ in range(_N_MVS[mode_id])
                    ]
                elif mode_id == _SKIP and not past:
                    raise BitstreamError("SKIP macroblock with no reference available")
                elif mode_id not in (_SKIP, _INTRA4):
                    raise BitstreamError(f"unsupported macroblock mode id {mode_id}")
                if mode_id == _SKIP:
                    fx, fy = pred_mv.full_pel
                    _check_fetch(past[0].padded, y + fy, x + fx)
                    mvs = [pred_mv]
                else:
                    syntax.qps.append(_checked_qp(base_qp + read_se(reader)))
                    tags = syntax.batches.read(16, tagged=mode_id == _INTRA4)
                    if mode_id == _INTRA4:
                        if not _INTRA4_MODE_IDS.issuperset(tags):
                            raise BitstreamError("unknown intra 4x4 mode id")
                        intra = tags
                    elif mvs:
                        _check_inter(mode_id, mvs, y, x, past, ref_l1)
                syntax.modes.append(mode_id)
                syntax.mvs.append(mvs)
                syntax.intra.append(intra)
                mv_grid[mb_y][mb_x] = mvs[0] if mvs else None

    def _reconstruct(
        self,
        syntax: _FrameSyntax,
        recon: np.ndarray,
        n_mb_x: int,
        past: list[_Anchor],
        ref_l1: _Anchor | None,
    ) -> None:
        """The reconstruct stage: dequantise (a step per macroblock) and
        inverse-transform the whole frame, then predict, add and clip in
        macroblock order, as intra prediction reads the ones above and left."""
        levels = syntax.batches.levels()
        steps = np.repeat([qstep(qp) for qp in syntax.qps], 16)[:, None, None]
        blocks = inverse_4x4(levels * steps).reshape(-1, 16, 4, 4)
        residuals = blocks.reshape(-1, 4, 4, 4, 4).transpose(0, 1, 3, 2, 4)
        residuals = residuals.reshape(-1, 16, 16)
        coded = 0
        for i, mode_id in enumerate(syntax.modes):
            y, x = (i // n_mb_x) * 16, (i % n_mb_x) * 16
            mvs, intra = syntax.mvs[i], syntax.intra[i]
            if mode_id == _SKIP:
                fx, fy = mvs[0].full_pel
                recon[y : y + 16, x : x + 16] = past[0].padded.block(y + fy, x + fx)
                continue
            if mode_id == _INTRA4:
                _intra4_wavefront(recon, y, x, intra, blocks[coded])
            else:
                if mode_id == _INTRA16:
                    pred = predict_16x16(recon, y, x, intra)
                elif mode_id == _BI:
                    pred = _fetch(past[mvs[0].ref].padded, y, x, mvs[0])
                    pred = (pred + _fetch(ref_l1.padded, y, x, mvs[1])) / 2.0
                elif mode_id == _INTER16:
                    pred = _fetch(past[mvs[0].ref].padded, y, x, mvs[0])
                else:  # sub-partitions predict from full-pel blocks
                    ref_plane = past[mvs[0].ref].padded
                    offsets, size = _PARTITIONS[mode_id]
                    pred = np.empty((16, 16), dtype=np.uint8)
                    for (py, px), mv in zip(offsets, mvs):
                        fx, fy = mv.full_pel
                        pred[py : py + size, px : px + size] = ref_plane.block(
                            y + py + fy, x + px + fx, size
                        )
                out = pred + residuals[coded]
                np.rint(out, out=out)
                recon[y : y + 16, x : x + 16] = np.minimum(
                    np.maximum(out, 0.0, out=out), 255.0, out=out
                )
            coded += 1
        if self.tracer.enabled:
            # Decoding work: entropy parse + inverse transform + MC copy.
            n_tokens = np.count_nonzero(levels.reshape(-1, 256), axis=1).tolist()
            for mode_id, n in zip([m for m in syntax.modes if m != _SKIP], n_tokens):
                if mode_id != _INTRA4:
                    self.tracer.kernel("entropy_coeff", iters=max(n, 1))
                    self.tracer.kernel("idct4", iters=16)
                    self.tracer.kernel("mc_copy", iters=16)


def decode(bitstream: bytes, *, tracer: Tracer | None = None) -> DecodeResult:
    """Convenience wrapper around :class:`Decoder`."""
    return Decoder(tracer=tracer).decode(bitstream)
