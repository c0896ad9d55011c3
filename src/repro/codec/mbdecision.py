"""Macroblock mode decision: candidate generation and RD cost comparison.

Implements paper §II-B3: each 16x16 macroblock chooses among intra modes
(I-macroblocks), inter modes with optional sub-partitioning
(P/B-macroblocks), bi-prediction (B frames only) and SKIP. Costs combine
distortion (SAD/SATD depending on ``subme``) with an estimated rate term
weighted by the QP-dependent Lagrange multiplier.

The sub-partition refinement scores every partition of the macroblock
from one difference block per displacement
(:func:`_refine_partitions_shared`); vectors, costs and point counts are
those of refining each partition from its own fetches (the oracle in
``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.codec.entropy import se_bits, ue_bits
from repro.codec.motion import (
    MotionSearchResult,
    PaddedReference,
    motion_search,
    subpel_refine,
)
from repro.codec.options import EncoderOptions
from repro.codec.quant import rd_lambda
from repro.codec.types import MBMode, MotionVector

__all__ = ["InterCandidate", "mv_bits", "search_partitions", "choose_inter_ref"]


def mv_bits(mv: MotionVector, pred: MotionVector) -> int:
    """Exp-Golomb cost of coding ``mv`` relative to its prediction."""
    return se_bits(mv.dx - pred.dx) + se_bits(mv.dy - pred.dy) + ue_bits(mv.ref)


@dataclass
class InterCandidate:
    """One inter coding candidate produced by the search stage."""

    mode: MBMode
    mvs: list[MotionVector]
    prediction: np.ndarray  # float64 or uint8 (16, 16)
    distortion: float
    rate_bits: int
    n_search_points: int
    positions: list[tuple[int, int]]
    mv1: MotionVector | None = None

    def rd_cost(self, qp: int) -> float:
        return self.distortion + rd_lambda(qp) * self.rate_bits


def choose_inter_ref(
    cur: np.ndarray,
    refs: list[PaddedReference],
    base_y: int,
    base_x: int,
    pred_mv: MotionVector,
    options: EncoderOptions,
    qp: int,
) -> tuple[MotionSearchResult, int, int, list[tuple[int, int]]]:
    """Search every active reference frame and keep the best.

    This is exactly where ``refs`` "expands the encoding search space"
    (paper §III-A): each extra reference frame costs a full integer-pel
    search plus its reference-index rate penalty. Returns the best result,
    its reference index, the total points evaluated, and all positions
    visited (for trace memory modelling, tagged per ref by the caller).
    ``total_points`` counts the integer-pel candidates over all references
    only; the winner's sub-pel evaluations are in ``best.n_points``.
    """
    lam = rd_lambda(qp)
    best: MotionSearchResult | None = None
    best_ref = 0
    total_points = 0
    all_positions: list[tuple[int, int]] = []
    for ref_idx, ref in enumerate(refs):
        result = motion_search(
            cur,
            ref,
            base_y,
            base_x,
            method=options.me,
            merange=options.merange,
            pred_mv=pred_mv.full_pel,
        )
        total_points += result.n_points
        all_positions.extend((ref_idx, *p) for p in result.positions)  # type: ignore[misc]
        penalized = result.cost + lam * ue_bits(ref_idx)
        if best is None or penalized < best.cost + lam * ue_bits(best_ref):
            best = result
            best_ref = ref_idx
    assert best is not None
    best = subpel_refine(
        cur, refs[best_ref], base_y, base_x, best, subme=options.subme
    )
    return best, best_ref, total_points, all_positions


_DIAMOND = ((0, -1), (0, 1), (-1, 0), (1, 0))  # (dx, dy), visit order
#: The start and its diamond: where a walk that finds nothing better stays.
_FIRST = ((0, 0), *_DIAMOND)
_FIRST_DX = np.array([dx for dx, _ in _FIRST])
_FIRST_DY = np.array([dy for _, dy in _FIRST])
#: Top-left corner of each partition inside the macroblock, raster order.
_ORIGINS = {
    size: [(y0, x0) for y0 in range(0, 16, size) for x0 in range(0, 16, size)]
    for size in (8, 4)
}


def _refine_partitions_shared(
    cur: np.ndarray,
    ref: PaddedReference,
    base_y: int,
    base_x: int,
    start_mv: tuple[int, int],
    size: int,
) -> list[tuple[tuple[int, int], float, int]]:
    """A small diamond refinement of every ``size`` x ``size`` partition of
    the macroblock around the parent MV, in raster order, from SADs the
    partitions share; per partition ``((dx, dy), cost, n_points)``.

    All ``n x n`` partitions refine around the same parent MV, and
    partition ``(py, px)`` displaced by ``d`` reads exactly the
    ``(py, px)`` sub-block of the 16x16 reference block displaced by ``d``.
    So one ``abs(cur - block)`` reduced per sub-block scores ``d`` for
    every partition at once. The first diamond is one gather; a
    displacement some walk drifts to later is scored on first use into the
    same per-macroblock memo. Integer SADs make every value exactly the
    per-partition sum, and each partition still walks on its own: two
    rounds, re-centring mid-round on every strict improvement.
    """
    n = 16 // size
    cur16 = cur.astype(np.int16)
    blocks = ref.sad_blocks
    y0 = base_y + ref.pad
    x0 = base_x + ref.pad
    sx, sy = start_mv

    def sads_at(dx, dy) -> list[list[int]]:
        """One row of per-partition SADs (raster order) per displacement."""
        diff = np.abs(cur16 - blocks[y0 + dy, x0 + dx])
        return (
            diff.reshape(-1, n, size, n, size).sum(axis=(2, 4)).reshape(-1, n * n)
        ).tolist()

    memo: dict[tuple[int, int], list[int]] = dict(
        zip(
            [(sx + dx, sy + dy) for dx, dy in _FIRST],
            sads_at(sx + _FIRST_DX, sy + _FIRST_DY),
        )
    )
    refined = []
    for part in range(n * n):
        best_dx, best_dy = sx, sy
        best_cost = memo[sx, sy][part]
        n_points = 1
        for _ in range(2):
            improved = False
            for dx, dy in _DIAMOND:
                at = (best_dx + dx, best_dy + dy)
                row = memo.get(at)
                if row is None:
                    row = memo[at] = sads_at(*at)[0]
                n_points += 1
                if row[part] < best_cost:
                    best_cost = row[part]
                    best_dx, best_dy = at
                    improved = True
            if not improved:
                break
        refined.append(((best_dx, best_dy), float(best_cost), n_points))
    return refined


def search_partitions(
    cur: np.ndarray,
    ref: PaddedReference,
    base_y: int,
    base_x: int,
    parent_mv: MotionVector,
    pred_mv: MotionVector,
    options: EncoderOptions,
    *,
    size: int,
) -> InterCandidate | None:
    """Try splitting the MB into ``size`` x ``size`` partitions (8 or 4).

    Each partition refines its own MV around the parent's. Returns None
    when the option set does not allow this partition size.
    """
    allowed = options.partition_candidates
    if size == 8 and "p8x8" not in allowed:
        return None
    if size == 4 and "p4x4" not in allowed:
        return None
    start = parent_mv.full_pel
    origins = _ORIGINS[size]
    refined = _refine_partitions_shared(cur, ref, base_y, base_x, start, size)
    mvs: list[MotionVector] = []
    prediction = np.zeros((16, 16), dtype=np.float64)
    distortion = 0.0
    rate = ue_bits(3 if size == 8 else 4)  # mode signalling
    total_points = 0
    for (y0, x0), ((dx, dy), cost, pts) in zip(origins, refined):
        total_points += pts
        mv = MotionVector(dx * 4, dy * 4, parent_mv.ref)
        mvs.append(mv)
        rate += mv_bits(mv, pred_mv)
        distortion += cost
        prediction[y0 : y0 + size, x0 : x0 + size] = ref.block(
            base_y + y0 + dy, base_x + x0 + dx, size
        )
    mode = MBMode.INTER_8X8 if size == 8 else MBMode.INTER_4X4
    return InterCandidate(
        mode=mode,
        mvs=mvs,
        prediction=prediction,
        distortion=distortion,
        rate_bits=rate,
        n_search_points=total_points,
        positions=[],
    )
