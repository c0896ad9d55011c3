"""Integer-DCT-style 4x4 block transform and Hadamard SATD.

We use the H.264 core transform matrix normalized into an orthonormal
basis, so forward/inverse are exact adjoints (energy preserving — handy
for property tests) while the *structure* (4x4 blocks, zigzag order,
per-position quantization) matches the real codec.

Every transform here is a fixed-order batched matrix product, which
skips ``einsum``'s per-call contraction-path search and is bit-identical
to the original ``einsum(optimize=True)`` formulation (the greedy path
resolves to the same two matmuls for every batch size); that formulation
is the oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "forward_4x4",
    "inverse_4x4",
    "blockify_16x16",
    "unblockify_16x16",
    "blockify_frame",
    "satd_4x4",
    "satd_16x16",
    "satd_batch",
    "hadamard_sad",
    "hadamard_sad_batch",
    "ZIGZAG_4X4",
]

# H.264 core transform rows; row norms are sqrt(4) and sqrt(10).
_CF = np.array(
    [[1, 1, 1, 1], [2, 1, -1, -2], [1, -1, -1, 1], [1, -2, 2, -1]],
    dtype=np.float64,
)
_NORMS = np.sqrt(np.sum(_CF * _CF, axis=1))
_T = _CF / _NORMS[:, None]  # orthonormal: _T @ _T.T == I
_TT = np.ascontiguousarray(_T.T)

# 4x4 Hadamard matrix for SATD.
_H4 = np.array(
    [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, -1, 1], [1, -1, 1, -1]],
    dtype=np.float64,
)
_H4T = np.ascontiguousarray(_H4.T)
# The 4x4 Hadamard applied to each 4x4 tile of a 16x16 block at once:
# block-diagonal, so ``_K16 @ d @ _K16T`` tile (i, j) is ``_H4 @ tile @ _H4T``.
_K16 = np.kron(np.eye(4), _H4)
_K16T = np.ascontiguousarray(_K16.T)

#: Zigzag scan order for a 4x4 block as (row, col) index arrays.
ZIGZAG_4X4 = (
    np.array([0, 0, 1, 2, 1, 0, 0, 1, 2, 3, 3, 2, 1, 2, 3, 3]),
    np.array([0, 1, 0, 0, 1, 2, 3, 2, 1, 0, 1, 2, 3, 3, 2, 3]),
)


def _as_blocks(blocks: np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(blocks, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.shape[-2:] != (4, 4):
        raise ValueError(f"expected (*, 4, 4) {what}, got {arr.shape}")
    return arr


def forward_4x4(blocks: np.ndarray) -> np.ndarray:
    """Forward transform of a batch of 4x4 residual blocks.

    ``blocks`` has shape ``(n, 4, 4)`` (any integer/float dtype); returns
    float64 coefficients of the same shape.
    """
    return _T @ _as_blocks(blocks, "blocks") @ _TT


def inverse_4x4(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`forward_4x4` (exact adjoint)."""
    return _TT @ _as_blocks(coeffs, "coeffs") @ _T


def blockify_16x16(mb: np.ndarray) -> np.ndarray:
    """Split a 16x16 macroblock into 16 4x4 blocks in raster order."""
    if mb.shape != (16, 16):
        raise ValueError(f"expected 16x16 macroblock, got {mb.shape}")
    return (
        mb.reshape(4, 4, 4, 4).transpose(0, 2, 1, 3).reshape(16, 4, 4)
    )


def unblockify_16x16(blocks: np.ndarray) -> np.ndarray:
    """Inverse of :func:`blockify_16x16`."""
    if blocks.shape != (16, 4, 4):
        raise ValueError(f"expected (16, 4, 4) blocks, got {blocks.shape}")
    return blocks.reshape(4, 4, 4, 4).transpose(0, 2, 1, 3).reshape(16, 16)


def blockify_frame(plane: np.ndarray, size: int = 4) -> np.ndarray:
    """Split a whole plane into ``size`` x ``size`` blocks in raster order.

    The plane's dimensions must be multiples of ``size``; returns an
    ``(n_blocks, size, size)`` array. This is the "blockify the frame
    once" primitive the batched encoder paths work over, generalizing
    :func:`blockify_16x16` beyond a single macroblock.
    """
    h, w = plane.shape
    if h % size or w % size:
        raise ValueError(
            f"plane shape {plane.shape} is not a multiple of {size}"
        )
    return (
        plane.reshape(h // size, size, w // size, size)
        .transpose(0, 2, 1, 3)
        .reshape(-1, size, size)
    )


def satd_4x4(blocks: np.ndarray) -> float:
    """Sum of absolute Hadamard-transformed differences over 4x4 blocks.

    SATD is x264's sharper distortion metric used at higher subme levels;
    it approximates the bit cost of the residual better than SAD.
    """
    trans = _H4 @ _as_blocks(blocks, "blocks") @ _H4T
    return float(np.sum(np.abs(trans)) / 2.0)


def satd_batch(block_sets: np.ndarray) -> np.ndarray:
    """Per-candidate SATD over a ``(k, n, 4, 4)`` batch of block sets.

    Returns a ``(k,)`` float64 vector where element ``i`` equals
    ``satd_4x4(block_sets[i])`` bit-exactly (the per-candidate reduction
    covers the same contiguous elements in the same order).
    """
    arr = np.asarray(block_sets, dtype=np.float64)
    if arr.ndim != 4 or arr.shape[-2:] != (4, 4):
        raise ValueError(f"expected (k, n, 4, 4) block sets, got {arr.shape}")
    trans = _H4 @ np.ascontiguousarray(arr) @ _H4T
    return np.abs(trans).reshape(arr.shape[0], -1).sum(axis=1) / 2.0


def satd_16x16(diff: np.ndarray) -> float:
    """SATD of one 16x16 difference block (float64, shape ``(16, 16)``).

    Equals ``satd_4x4(blockify_16x16(diff))``; the flat entry point for
    hot callers that already hold the difference (no validation layers):
    two 16x16 products with the block-diagonal Hadamard instead of sixteen
    stacked 4x4 pairs. The products and the reduction run in another order
    than the per-tile form's, which is exact — hence bit-identical — on
    what the codec passes: differences of a pixel block and a (quarter-pel
    bilinear) prediction are multiples of 1/16 below 2**12, so every
    partial sum is representable.
    """
    return float(np.abs(_K16 @ diff @ _K16T).sum() / 2.0)


def hadamard_sad(a: np.ndarray, b: np.ndarray) -> float:
    """SATD between two 16x16 pixel blocks."""
    if a.shape != (16, 16) or b.shape != (16, 16):
        raise ValueError("hadamard_sad expects 16x16 blocks")
    diff = a.astype(np.float64) - b.astype(np.float64)
    return satd_16x16(diff)


def hadamard_sad_batch(cur: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """SATD of one 16x16 block against ``(k, 16, 16)`` candidates.

    Element ``i`` equals ``hadamard_sad(cur, candidates[i])`` bit-exactly.
    """
    cands = np.asarray(candidates)
    if cur.shape != (16, 16) or cands.ndim != 3 or cands.shape[-2:] != (16, 16):
        raise ValueError("hadamard_sad_batch expects 16x16 blocks")
    diff = cur.astype(np.float64)[None] - cands.astype(np.float64)
    k = diff.shape[0]
    blocks = (
        diff.reshape(k, 4, 4, 4, 4).transpose(0, 1, 3, 2, 4).reshape(k, 16, 4, 4)
    )
    return satd_batch(blocks)
