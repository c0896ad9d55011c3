"""In-loop deblocking filter.

Smooths block-boundary discontinuities in the reconstruction before it is
used as a reference (Table II's ``deblock`` option: ``[0:0]`` disables it
for ultrafast, ``[1:0]`` enables it everywhere else). The filter is a
simplified H.264 boundary filter: edge pixels are low-pass filtered only
where the discontinuity is small enough to be a coding artifact rather
than a real edge, with thresholds derived from QP.

Each edge only reads/writes the two pixel lines on either side of its own
boundary, and consecutive edges are 4 pixels apart, so every edge along
an axis is independent: :func:`_filter_edges` filters them all with one
fancy-indexed gather/scatter, elementwise identical to a per-edge loop
(the oracle in ``tests/oracles.py``).
"""

from __future__ import annotations

import numpy as np

from repro._util import check_range

__all__ = ["deblock_plane", "deblock_thresholds"]


def deblock_thresholds(qp: int, offset: int = 0) -> tuple[float, float]:
    """(alpha, beta) edge/gradient thresholds, increasing with QP.

    Higher QP means bigger quantization artifacts, so the filter becomes
    more aggressive; ``offset`` shifts both (the second Table II deblock
    parameter).
    """
    check_range("qp", qp, 0, 51)
    q = max(0, min(51, qp + offset))
    alpha = 0.8 * (2.0 ** (q / 6.0)) - 0.6
    beta = 0.5 * q - 7.0
    return max(alpha, 0.0), max(beta, 0.0)


def _filter_edges(plane: np.ndarray, axis: int, alpha: float, beta: float) -> None:
    """Filter all 4-pixel-aligned edges along one axis, in place, in one
    batched gather/filter/scatter."""
    n = plane.shape[axis]
    edges = np.arange(4, n, 4)
    if edges.size == 0:
        return
    # The last edge can sit on the plane boundary; the filter substitutes
    # q0 for the missing q1 there, which the clamped index reproduces
    # exactly (plane[n-1] *is* q0 in that case).
    q1_idx = np.minimum(edges + 1, n - 1)
    if axis == 0:
        p1, p0 = plane[edges - 2, :], plane[edges - 1, :]
        q0, q1 = plane[edges, :], plane[q1_idx, :]
    else:
        p1, p0 = plane[:, edges - 2], plane[:, edges - 1]
        q0, q1 = plane[:, edges], plane[:, q1_idx]
    d_edge = np.abs(p0 - q0)
    mask = (
        (d_edge < alpha)
        & (d_edge > 0)
        & (np.abs(p1 - p0) < beta)
        & (np.abs(q1 - q0) < beta)
    )
    if not np.any(mask):
        return
    delta = (q0 - p0) / 4.0
    p0_new = np.where(mask, p0 + delta, p0)
    q0_new = np.where(mask, q0 - delta, q0)
    if axis == 0:
        plane[edges - 1, :] = p0_new
        plane[edges, :] = q0_new
    else:
        plane[:, edges - 1] = p0_new
        plane[:, edges] = q0_new


def deblock_plane(
    recon: np.ndarray, qp: int, *, offset: int = 0
) -> tuple[np.ndarray, int]:
    """Deblock a reconstructed luma plane.

    Returns ``(filtered_plane, n_edges_processed)``; the edge count feeds
    the trace recorder (the filter is a real kernel in the paper's
    profiles).
    """
    alpha, beta = deblock_thresholds(qp, offset)
    work = recon.astype(np.float64)
    _filter_edges(work, axis=0, alpha=alpha, beta=beta)
    _filter_edges(work, axis=1, alpha=alpha, beta=beta)
    n_edges = (work.shape[0] // 4 - 1) * work.shape[1] + (
        work.shape[1] // 4 - 1
    ) * work.shape[0]
    return np.clip(np.round(work), 0, 255).astype(np.uint8), max(n_edges, 0)
