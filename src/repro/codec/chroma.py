"""Chroma (4:2:0) coding layer.

x264 codes Cb/Cr at quarter resolution alongside luma. Our chroma layer
is deliberately simpler than the luma path — chroma planes are smooth, so
per-8x8-block coding with two prediction modes (temporal zero-MV from the
previous reconstructed chroma plane, or spatial DC from coded neighbors)
captures almost all of the redundancy:

- each 8x8 chroma block codes ``ue(mode)`` (0 = temporal, 1 = DC intra),
  then its four 4x4 residual blocks through the shared entropy coder;
- the chroma QP follows H.264's convention of capping below the luma QP
  at high QPs (chroma artifacts are more objectionable).

The layer is enabled with ``EncoderOptions(chroma=True)`` and is fully
decodable; the round-trip tests verify encoder/decoder chroma recon
equality bit-exactly.
"""

from __future__ import annotations

import numpy as np

from repro.codec.entropy import (
    BitReader,
    BitstreamError,
    BitWriter,
    decode_blocks,
    encode_blocks,
    read_ue,
    write_ue,
)
from repro.codec.quant import dequantize, trellis_quantize
from repro.codec.transform import blockify_frame, forward_4x4, inverse_4x4

__all__ = ["chroma_qp", "encode_chroma_plane", "decode_chroma_plane"]

_BLOCK = 8


def chroma_qp(luma_qp: int) -> int:
    """Chroma QP from luma QP (capped at high QPs, per H.264 Table 8-15)."""
    if luma_qp <= 30:
        return luma_qp
    # Progressive compression of the chroma QP range above 30.
    return min(30 + (luma_qp - 30) * 2 // 3, 39)


def _pad_to_block(plane: np.ndarray) -> np.ndarray:
    h, w = plane.shape
    ph = (-h) % _BLOCK
    pw = (-w) % _BLOCK
    if ph == 0 and pw == 0:
        return plane
    return np.pad(plane, ((0, ph), (0, pw)), mode="edge")


def _dc_prediction(recon: np.ndarray, y: int, x: int) -> np.ndarray:
    top = recon[y - 1, x : x + _BLOCK].astype(np.float64) if y > 0 else None
    left = recon[y : y + _BLOCK, x - 1].astype(np.float64) if x > 0 else None
    if top is not None and left is not None:
        dc = (top.sum() + left.sum()) / (2 * _BLOCK)
    elif top is not None:
        dc = top.mean()
    elif left is not None:
        dc = left.mean()
    else:
        dc = 128.0
    return np.full((_BLOCK, _BLOCK), dc)


def _blockify8(block: np.ndarray) -> np.ndarray:
    """An 8x8 block as four 4x4 blocks in raster order."""
    return block.reshape(2, 4, 2, 4).transpose(0, 2, 1, 3).reshape(4, 4, 4)


def _unblockify8(blocks: np.ndarray) -> np.ndarray:
    return blocks.reshape(2, 2, 4, 4).transpose(0, 2, 1, 3).reshape(8, 8)


def encode_chroma_plane(
    writer: BitWriter,
    plane: np.ndarray,
    prev_recon: np.ndarray | None,
    luma_qp: int,
    *,
    trellis: int = 0,
) -> np.ndarray:
    """Encode one chroma plane; returns its reconstruction (padded).

    ``prev_recon`` is the previous frame's reconstructed chroma plane
    (``None`` for intra-only frames).
    """
    src = _pad_to_block(np.asarray(plane, dtype=np.uint8))
    qp = chroma_qp(luma_qp)
    h, w = src.shape
    recon = np.zeros((h, w), dtype=np.uint8)
    # The DC prediction chains through the running reconstruction, so the
    # block loop is inherently sequential; the temporal candidate only
    # reads the previous frame, so the plane is blockified once and every
    # temporal candidate scored in one batch (same contiguous 64-element
    # reductions as a per-block score; on a tie temporal wins, as it would
    # sorting first in a per-block candidate list).
    src_blocks = blockify_frame(src, _BLOCK).astype(np.float64)
    t_blocks = t_sads = None
    if prev_recon is not None and prev_recon.shape == src.shape:
        t_blocks = blockify_frame(prev_recon, _BLOCK).astype(np.float64)
        t_sads = np.abs(src_blocks - t_blocks).reshape(len(src_blocks), -1).sum(axis=1)
    i = 0
    for y in range(0, h, _BLOCK):
        for x in range(0, w, _BLOCK):
            block = src_blocks[i]
            dc_pred = _dc_prediction(recon, y, x)
            mode, pred = 1, dc_pred
            if prev_recon is not None:
                if t_blocks is not None:
                    temporal = t_blocks[i]
                    t_sad = float(t_sads[i])
                else:
                    temporal = prev_recon[y : y + _BLOCK, x : x + _BLOCK].astype(
                        np.float64
                    )
                    t_sad = float(np.sum(np.abs(block - temporal)))
                if t_sad <= float(np.sum(np.abs(block - dc_pred))):
                    mode, pred = 0, temporal
            write_ue(writer, mode)
            residual = block - pred
            levels = trellis_quantize(
                forward_4x4(_blockify8(residual)), qp, level=trellis
            )
            encode_blocks(writer, levels)
            rec = np.clip(
                np.round(pred + _unblockify8(inverse_4x4(dequantize(levels, qp)))),
                0,
                255,
            ).astype(np.uint8)
            recon[y : y + _BLOCK, x : x + _BLOCK] = rec
            i += 1
    return recon


def decode_chroma_plane(
    reader: BitReader,
    shape: tuple[int, int],
    prev_recon: np.ndarray | None,
    luma_qp: int,
) -> np.ndarray:
    """Decode one chroma plane of unpadded ``shape`` (mirrors the encoder)."""
    qp = chroma_qp(luma_qp)
    h = (shape[0] + _BLOCK - 1) // _BLOCK * _BLOCK
    w = (shape[1] + _BLOCK - 1) // _BLOCK * _BLOCK
    recon = np.zeros((h, w), dtype=np.uint8)
    for y in range(0, h, _BLOCK):
        for x in range(0, w, _BLOCK):
            mode = read_ue(reader)
            if mode == 0:
                if prev_recon is None:
                    raise BitstreamError("temporal chroma block without a reference")
                pred = prev_recon[y : y + _BLOCK, x : x + _BLOCK].astype(np.float64)
            elif mode == 1:
                pred = _dc_prediction(recon, y, x)
            else:
                raise BitstreamError(f"corrupt chroma block mode {mode}")
            levels = decode_blocks(reader, 4)
            rec = np.clip(
                np.round(pred + _unblockify8(inverse_4x4(dequantize(levels, qp)))),
                0,
                255,
            ).astype(np.uint8)
            recon[y : y + _BLOCK, x : x + _BLOCK] = rec
    return recon
