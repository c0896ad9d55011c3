"""Intra prediction: spatial prediction from reconstructed neighbors.

Implements the paper's §II-A "intra-frame encoding" stage. We support the
16x16 macroblock modes (DC / vertical / horizontal / plane, as in H.264)
and a 4x4 variant where each sub-block predicts from already-reconstructed
pixels, capturing the sequential dependency structure that makes i4x4
slower but more precise.

:func:`predict_4x4_blocks` is backend-dispatched (see
:mod:`repro.codec.kernels`): the fast-mode-decision approximation
predicts every sub-block from a *static* working reconstruction (source
pixels pasted in once, never updated mid-macroblock), so all 16
sub-blocks are independent and the ``vectorized`` backend scores the
DC/V/H candidates for the whole macroblock as one stack — with the mode
choice, prediction bytes, SAD total, and modes-tried count identical to
the reference loop.

When intra-4x4 *wins*, the macroblock is coded for real, each block
predicting from its neighbours' reconstructions. That chain orders the
anti-diagonals of the block grid, not the blocks of one:
:func:`code_intra4_wavefront` is the ``vectorized`` body of the encoder's
sixteen-step reference chain, in seven steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.codec import kernels
from repro.codec.quant import dequantize, trellis_quantize
from repro.codec.transform import (
    blockify_16x16,
    forward_4x4,
    inverse_4x4,
    unblockify_16x16,
)
from repro.codec.types import IntraMode

__all__ = [
    "IntraPrediction",
    "predict_16x16",
    "best_intra_16x16",
    "predict_4x4_blocks",
    "code_intra4_wavefront",
]


@dataclass(frozen=True)
class IntraPrediction:
    """Result of an intra mode search."""

    mode: IntraMode
    prediction: np.ndarray  # uint8 (16, 16)
    sad: float
    n_modes_tried: int


def _neighbors(
    recon: np.ndarray, y: int, x: int, size: int
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Top row and left column of reconstructed pixels, or None at edges."""
    top = recon[y - 1, x : x + size].astype(np.float64) if y > 0 else None
    left = recon[y : y + size, x - 1].astype(np.float64) if x > 0 else None
    return top, left


def _dc_pred(top: np.ndarray | None, left: np.ndarray | None, size: int) -> np.ndarray:
    if top is not None and left is not None:
        dc = (top.sum() + left.sum()) / (2 * size)
    elif top is not None:
        dc = top.mean()
    elif left is not None:
        dc = left.mean()
    else:
        dc = 128.0
    return np.full((size, size), dc)


def _polyfit_constants(size: int) -> tuple[np.ndarray, float, float]:
    """What ``np.polyfit(arange(size), y, 1)`` derives from ``x`` alone: its
    column-scaled Vandermonde matrix, the slope column's scale and its
    ``rcond``, built with polyfit's own expressions.

    This copies private steps of ``np.polyfit`` (as of NumPy 2.4: ``vander``,
    ``scale = sqrt((lhs * lhs).sum(axis=0))``, ``rcond = len(x) * eps``, one
    ``lstsq``, ``c / scale``). The encoder, and the decoder through
    :func:`predict_16x16`, are bit-identical across backends only while
    NumPy keeps them: a last-bit change of slope flips a rounded pixel on
    flat rows. ``test_plane_pred_is_the_polyfit_form`` (tier-1) compares
    the two on every run; if a NumPy upgrade fails it, re-derive these
    constants from the new ``polyfit``.
    """
    lhs = np.vander(np.arange(size, dtype=np.float64) + 0.0, 2)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    return lhs, float(scale[0]), size * float(np.finfo(np.float64).eps)


_PLANE16_LHS, _PLANE16_SCALE, _PLANE16_RCOND = _polyfit_constants(16)
_PLANE16_YY, _PLANE16_XX = np.meshgrid(
    np.arange(16.0) - 15.0, np.arange(16.0) - 15.0, indexing="ij"
)


def _plane_pred(top: np.ndarray, left: np.ndarray, size: int) -> np.ndarray:
    """H.264-style plane (gradient) prediction.

    The vectorized backend runs polyfit's own solve — the same
    ``np.linalg.lstsq`` on the same scaled matrix with the same ``rcond``,
    then the same post-division — minus everything polyfit recomputes from
    the constant ``x`` on every call, so the gradients are bit-identical
    by construction. (A closed-form slope or one two-column solve is not:
    both differ in the last bits, and a flat row then rounds a ``.5`` the
    other way.)
    """
    if kernels.is_vectorized():
        assert size == 16, "the folded constants are the 16x16 plane's"
        h_grad = float(
            np.linalg.lstsq(_PLANE16_LHS, top, _PLANE16_RCOND)[0][0] / _PLANE16_SCALE
        )
        v_grad = float(
            np.linalg.lstsq(_PLANE16_LHS, left, _PLANE16_RCOND)[0][0] / _PLANE16_SCALE
        )
        base = (top[-1] + left[-1]) / 2.0
        return base + h_grad * _PLANE16_XX + v_grad * _PLANE16_YY
    idx = np.arange(size, dtype=np.float64)
    h_grad = float(np.polyfit(idx, top, 1)[0])
    v_grad = float(np.polyfit(idx, left, 1)[0])
    base = (top[-1] + left[-1]) / 2.0
    yy, xx = np.meshgrid(idx - (size - 1), idx - (size - 1), indexing="ij")
    return base + h_grad * xx + v_grad * yy


def predict_16x16(
    recon: np.ndarray, mb_y: int, mb_x: int, mode: IntraMode
) -> np.ndarray:
    """Predict a 16x16 macroblock at pixel position (mb_y, mb_x)."""
    top, left = _neighbors(recon, mb_y, mb_x, 16)
    if mode is IntraMode.DC:
        pred = _dc_pred(top, left, 16)
    elif mode is IntraMode.VERTICAL:
        pred = np.tile(top, (16, 1)) if top is not None else _dc_pred(None, left, 16)
    elif mode is IntraMode.HORIZONTAL:
        pred = (
            np.tile(left[:, None], (1, 16))
            if left is not None
            else _dc_pred(top, None, 16)
        )
    elif mode is IntraMode.PLANE:
        if top is None or left is None:
            pred = _dc_pred(top, left, 16)
        else:
            pred = _plane_pred(top, left, 16)
    else:
        raise ValueError(f"unknown intra mode {mode!r}")
    return np.clip(np.round(pred), 0, 255).astype(np.uint8)


def best_intra_16x16(
    source: np.ndarray, recon: np.ndarray, mb_y: int, mb_x: int
) -> IntraPrediction:
    """Try all 16x16 intra modes and return the lowest-SAD one."""
    if source.shape != (16, 16):
        raise ValueError(f"expected 16x16 source block, got {source.shape}")
    src = source.astype(np.float64)
    if kernels.is_vectorized():
        return _best_intra_16x16_vectorized(src, recon, mb_y, mb_x)
    best: IntraPrediction | None = None
    for mode in IntraMode:
        pred = predict_16x16(recon, mb_y, mb_x, mode)
        sad = float(np.sum(np.abs(src - pred)))
        if best is None or sad < best.sad:
            best = IntraPrediction(mode, pred, sad, len(IntraMode))
    assert best is not None
    return best


def _best_intra_16x16_vectorized(
    src: np.ndarray, recon: np.ndarray, mb_y: int, mb_x: int
) -> IntraPrediction:
    """All four 16x16 modes scored with one stacked clip and one reduction.

    Fetches the neighbors once, materializes the four float predictions
    into one ``(4, 16, 16)`` stack, and rounds/clips/scores them together;
    every per-pixel value and each mode's contiguous 256-element SAD
    reduction match the reference's per-mode computation, and the replayed
    strict-``<`` scan keeps its first-minimum tie-break.
    """
    top, left = _neighbors(recon, mb_y, mb_x, 16)
    if top is not None and left is not None:
        dc = (top.sum() + left.sum()) / 32.0
    elif top is not None:
        dc = top.mean()
    elif left is not None:
        dc = left.mean()
    else:
        dc = 128.0
    preds = np.empty((4, 16, 16), dtype=np.float64)
    preds[0] = dc
    preds[1] = top[None, :] if top is not None else dc
    preds[2] = left[:, None] if left is not None else dc
    if top is not None and left is not None:
        preds[3] = _plane_pred(top, left, 16)
    else:
        preds[3] = dc
    u8 = np.minimum(np.maximum(np.round(preds), 0.0), 255.0).astype(np.uint8)
    sads = np.abs(src[None] - u8).reshape(4, -1).sum(axis=1)
    best_i = 0
    best_sad = float(sads[0])
    for i in (1, 2, 3):
        if float(sads[i]) < best_sad:
            best_sad = float(sads[i])
            best_i = i
    return IntraPrediction(IntraMode(best_i), u8[best_i], best_sad, len(IntraMode))


def predict_4x4_blocks(
    source: np.ndarray, recon: np.ndarray, mb_y: int, mb_x: int
) -> tuple[np.ndarray, float, int]:
    """Sequential 4x4 intra prediction over one macroblock.

    Each 4x4 block picks the best of DC/V/H using neighbors from the
    *working reconstruction* (neighbor blocks predicted earlier in the same
    macroblock), mirroring H.264's i4x4 dependency chain. Returns
    ``(prediction, total_sad, modes_tried)``; prediction uses the source
    block itself as the "reconstruction" for in-MB neighbors, a standard
    fast-mode-decision approximation.
    """
    if source.shape != (16, 16):
        raise ValueError(f"expected 16x16 source block, got {source.shape}")
    if kernels.is_vectorized():
        return _predict_4x4_blocks_vectorized(source, recon, mb_y, mb_x)
    prediction = np.zeros((16, 16), dtype=np.uint8)
    work = recon.copy()
    work[mb_y : mb_y + 16, mb_x : mb_x + 16] = source
    total_sad = 0.0
    modes_tried = 0
    for by in range(4):
        for bx in range(4):
            y = mb_y + by * 4
            x = mb_x + bx * 4
            src = source[by * 4 : by * 4 + 4, bx * 4 : bx * 4 + 4].astype(np.float64)
            top, left = _neighbors(work, y, x, 4)
            candidates = [_dc_pred(top, left, 4)]
            if top is not None:
                candidates.append(np.tile(top, (4, 1)))
            if left is not None:
                candidates.append(np.tile(left[:, None], (1, 4)))
            best_pred = None
            best_sad = np.inf
            for cand in candidates:
                modes_tried += 1
                sad = float(np.sum(np.abs(src - cand)))
                if sad < best_sad:
                    best_sad = sad
                    best_pred = cand
            assert best_pred is not None
            prediction[by * 4 : by * 4 + 4, bx * 4 : bx * 4 + 4] = np.clip(
                np.round(best_pred), 0, 255
            ).astype(np.uint8)
            total_sad += best_sad
    return prediction, total_sad, modes_tried


#: Per 4x4 block in raster order: its row / column in the 4x4 block grid.
_BLOCK_ROW = np.repeat(np.arange(4), 4)
_BLOCK_COL = np.tile(np.arange(4), 4)
_BLOCKS16 = np.arange(16)


class _EdgeCase(NamedTuple):
    """Which neighbours a group of 4x4 blocks lacks in a macroblock that
    sits on the top and / or left frame edge."""

    no_top: np.ndarray  # (k,) bool
    no_left: np.ndarray  # (k,) bool
    neither: np.ndarray  # (k,) bool: DC falls back to 128
    dc_divisor: np.ndarray  # (k,) pixels averaged by DC: 8, 4 (or 1 if neither)
    n_missing: int  # V / H candidates that do not exist


def _edge_case(ids: np.ndarray, top_edge: bool, left_edge: bool) -> _EdgeCase | None:
    """The edge case of blocks ``ids`` (raster ids), or ``None`` when every
    one of them has both neighbours — the common case, which skips all
    masking."""
    no_top = (_BLOCK_ROW[ids] == 0) & top_edge
    no_left = (_BLOCK_COL[ids] == 0) & left_edge
    n_missing = int(no_top.sum() + no_left.sum())
    if not n_missing:
        return None
    divisor = np.maximum(8.0 - 4.0 * no_top - 4.0 * no_left, 1.0)
    return _EdgeCase(no_top, no_left, no_top & no_left, divisor, n_missing)


_EDGES = ((False, False), (False, True), (True, False), (True, True))
#: ``[mb_y == 0, mb_x == 0]`` -> the edge case of all 16 blocks.
_EDGE_MB = {edge: _edge_case(np.arange(16), *edge) for edge in _EDGES}


def _score_dc_v_h(
    srcs: np.ndarray, tops: np.ndarray, lefts: np.ndarray, edge: _EdgeCase | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """DC / V / H for ``k`` independent 4x4 blocks as one ``(3, k, 4, 4)`` stack.

    ``tops`` / ``lefts`` are the ``(k, 4)`` neighbour pixels, **0.0 where
    the neighbour does not exist** (``edge`` says where). Returns
    ``(preds, sads, modes)``: the float candidate stack, its ``(3, k)``
    SADs (``inf`` for a candidate that does not exist) and each block's
    winner. ``argmin`` takes the first minimum, which is the reference's
    strict-``<`` scan in DC, V, H order. Pixel sums are exact integers and
    every SAD is a sum of multiples of 1/8 far below 2**53, so all of it is
    exact in any reduction order.
    """
    k = srcs.shape[0]
    dc = tops.sum(axis=1) + lefts.sum(axis=1)
    if edge is None:
        dc /= 8.0
    else:
        dc = np.where(edge.neither, 128.0, dc / edge.dc_divisor)
    preds = np.empty((3, k, 4, 4), dtype=np.float64)
    preds[0] = dc[:, None, None]
    preds[1] = tops[:, None, :]
    preds[2] = lefts[:, :, None]
    sads = np.abs(srcs - preds).reshape(3, k, 16).sum(axis=2)
    if edge is not None:
        sads[1, edge.no_top] = np.inf
        sads[2, edge.no_left] = np.inf
    return preds, sads, sads.argmin(axis=0)


def _neighbor_patch(recon: np.ndarray, mb_y: int, mb_x: int) -> np.ndarray:
    """A float 17x17 patch whose row 0 / column 0 hold the reconstructed
    pixels above / left of the macroblock (0.0 on a frame edge) and whose
    16x16 interior the caller fills: every pixel an i4x4 block can read."""
    patch = np.zeros((17, 17), dtype=np.float64)
    if mb_y > 0:
        patch[0, 1:] = recon[mb_y - 1, mb_x : mb_x + 16]
    if mb_x > 0:
        patch[1:, 0] = recon[mb_y : mb_y + 16, mb_x - 1]
    return patch


def _predict_4x4_blocks_vectorized(
    source: np.ndarray, recon: np.ndarray, mb_y: int, mb_x: int
) -> tuple[np.ndarray, float, int]:
    """Batched i4x4 mode decision over all 16 sub-blocks at once.

    The working reconstruction is static during the loop (it only differs
    from ``recon`` inside the macroblock, where it is the source), so the
    sub-blocks have no sequential dependency: their neighbours are strided
    slices of one patch, and all 48 candidates are scored as one stack.
    """
    patch = _neighbor_patch(recon, mb_y, mb_x)
    patch[1:, 1:] = source
    # Block (by, bx): top = patch[4*by, 4*bx+1 : 4*bx+5],
    # left = patch[4*by+1 : 4*by+5, 4*bx].
    tops = patch[0:16:4, 1:].reshape(16, 4)
    lefts = patch[1:, 0:16:4].reshape(4, 4, 4).transpose(0, 2, 1).reshape(16, 4)
    srcs = blockify_16x16(patch[1:, 1:])
    edge = _EDGE_MB[mb_y == 0, mb_x == 0]
    preds, sads, modes = _score_dc_v_h(srcs, tops, lefts, edge)
    # Only DC can be fractional, and every candidate lies in [0, 255]:
    # rounding is all the reference's round-and-clip does.
    pred_blocks = np.round(preds[modes, _BLOCKS16]).astype(np.uint8)
    total_sad = float(sads[modes, _BLOCKS16].sum())
    modes_tried = 48 - (edge.n_missing if edge is not None else 0)
    return unblockify_16x16(pred_blocks), total_sad, modes_tried


def _diagonal(d: int) -> tuple[np.ndarray, tuple, tuple, tuple, np.ndarray]:
    """Anti-diagonal ``d`` of the block grid: its blocks' raster ids, the
    :func:`_neighbor_patch` index tuples of their top neighbours, left
    neighbours and own pixels, and ``arange(k)``."""
    ids = np.flatnonzero(_BLOCK_ROW + _BLOCK_COL == d)
    rows = 4 * _BLOCK_ROW[ids]  # patch row of each block's top neighbours
    cols = 4 * _BLOCK_COL[ids]  # patch column of each block's left neighbours
    four = np.arange(1, 5)
    tops = (rows[:, None], cols[:, None] + four)
    lefts = (rows[:, None] + four, cols[:, None])
    cells = (rows[:, None, None] + four[:, None], cols[:, None, None] + four)
    return ids, tops, lefts, cells, np.arange(len(ids))


#: A block reads only its top and left neighbours, so the blocks of one
#: anti-diagonal are independent once the diagonals before it are
#: reconstructed: seven steps of 1, 2, 3, 4, 3, 2, 1 blocks.
_DIAGONALS = tuple(_diagonal(d) for d in range(7))
_EDGE_DIAGONALS = {
    edge: tuple(_edge_case(diagonal[0], *edge) for diagonal in _DIAGONALS)
    for edge in _EDGES
}


def code_intra4_wavefront(
    src_f: np.ndarray,
    recon: np.ndarray,
    mb_y: int,
    mb_x: int,
    qp: int,
    trellis: int,
) -> tuple[list[int], np.ndarray]:
    """Code one macroblock as sixteen intra-4x4 blocks, a diagonal at a time.

    The vectorized body of the encoder's sequential i4x4 chain: each block
    picks DC / V / H from *reconstructed* neighbours, is transformed,
    quantized and reconstructed, and its reconstruction feeds the blocks
    right of and below it. That orders the anti-diagonals, not the blocks
    of one, so the chain runs in seven steps instead of sixteen. Every
    per-block value is what the sequential chain computes: the transforms
    are per-matrix products whatever the batch size, and quantization is
    elementwise.

    ``src_f`` is the float64 source macroblock; its reconstruction is
    written to ``recon`` at pixel position ``(mb_y, mb_x)``. Returns the
    sixteen modes and the ``(16, 4, 4)`` int32 levels, in raster order.
    """
    patch = _neighbor_patch(recon, mb_y, mb_x)
    srcs = blockify_16x16(src_f)
    modes_all = np.empty(16, dtype=np.intp)
    levels_all = np.empty((16, 4, 4), dtype=np.int32)
    edges = _EDGE_DIAGONALS[mb_y == 0, mb_x == 0]
    for (ids, top_at, left_at, cells, arange), edge in zip(_DIAGONALS, edges):
        src = srcs[ids]
        preds, _, modes = _score_dc_v_h(src, patch[top_at], patch[left_at], edge)
        pred = preds[modes, arange]
        levels = trellis_quantize(forward_4x4(src - pred), qp, level=trellis)
        # minimum(maximum(...)) is np.clip without its dispatch overhead;
        # identical for finite values.
        patch[cells] = np.minimum(
            np.maximum(np.round(pred + inverse_4x4(dequantize(levels, qp))), 0.0),
            255.0,
        )
        modes_all[ids] = modes
        levels_all[ids] = levels
    recon[mb_y : mb_y + 16, mb_x : mb_x + 16] = patch[1:, 1:].astype(np.uint8)
    return modes_all.tolist(), levels_all
