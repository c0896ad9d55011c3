"""Motion estimation: the x264 integer-pel search patterns plus subpel.

Implements the paper's §II-B2 search methods — diamond (dia), hexagon
(hex), uneven multi-hexagon (umh), exhaustive (esa) and Hadamard
exhaustive (tesa) — over a padded reference plane, plus subpixel
refinement gated by ``subme``. Every search reports how many candidate
positions it evaluated and which positions it visited; the encoder turns
those into memory-access events for the µarch simulator, which is how
"refs expands the encoding search space" (paper §III-A) becomes visible
as data-cache pressure.

The candidate-scoring loops gather each round's candidate blocks into
one ``(k, 16, 16)`` batch and score them with a single integer reduction,
then replay the running-best update in order, so the chosen vector, cost,
point count, visit order, and improvement flags are those of the
one-candidate-at-a-time loop (the oracle in ``tests/oracles.py``). Greedy
stages whose candidate *positions* depend on mid-loop best updates (the
umh hexagon rings, subpel refinement) stay sequential; only their
per-candidate cost evaluation is batched or cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.codec.transform import hadamard_sad_batch, satd_16x16
from repro.codec.types import MotionVector

__all__ = [
    "PaddedReference",
    "MotionSearchResult",
    "motion_search",
    "subpel_refine",
    "fetch_prediction",
    "predict_mv",
]

_DIA_OFFSETS = ((0, -1), (0, 1), (-1, 0), (1, 0))
_HEX_OFFSETS = ((-2, 0), (2, 0), (-1, 2), (1, 2), (-1, -2), (1, -2))  # (dx, dy)


@dataclass(frozen=True)
class PaddedReference:
    """A reference luma plane edge-padded for unclamped block fetches."""

    plane: np.ndarray  # uint8, padded
    pad: int
    height: int  # original geometry
    width: int

    @staticmethod
    def from_plane(plane: np.ndarray, pad: int) -> "PaddedReference":
        if plane.ndim != 2:
            raise ValueError("reference plane must be 2-D")
        padded = np.pad(plane, pad, mode="edge")
        return PaddedReference(padded, pad, plane.shape[0], plane.shape[1])

    def block(self, y: int, x: int, size: int = 16) -> np.ndarray:
        """Fetch a block at *unpadded* coordinates (may be negative)."""
        yy = y + self.pad
        xx = x + self.pad
        return self.plane[yy : yy + size, xx : xx + size]

    # The caches below are functions of ``plane`` alone and live in the
    # instance ``__dict__`` (``cached_property`` bypasses the frozen
    # ``__setattr__``), so they die with the reference's DPB entry.

    @cached_property
    def _float_plane(self) -> np.ndarray:
        """Float32 copy of the padded plane (read-only use).

        Interpolation reads the same pixel values whether each fetch casts
        its own slice or slices one shared cast; caching the cast once per
        reference removes a per-fetch copy from the subpel hot path.
        float32 is exact on the 1/16 grid: every value the phase planes
        derive from it is a multiple of 1/16 in [0, 255], at most 12
        significant bits, so each lerp step rounds nothing and the planes
        equal float64 ones at half their bytes (x264 keeps its half-pel
        planes at pixel width).
        """
        return self.plane.astype(np.float32)

    @cached_property
    def _phase_planes(self) -> dict[tuple[int, int], np.ndarray]:
        return {}

    @cached_property
    def sad_blocks(self) -> np.ndarray:
        """Every 16x16 block of the padded plane as a read-only int16 view.

        ``sad_blocks[y, x]`` is the block whose top-left *padded*
        coordinate is ``(y, x)``; integer-pel scoring (the 16x16 search
        windows and the sub-partition refinement, whose partitions are
        sub-blocks of these) slices it instead of casting and striding a
        window of its own per search. int16 holds every pixel difference,
        and the SAD reductions accumulate in the platform integer, so the
        sums are exact.
        """
        return sliding_window_view(
            self.plane.astype(np.int16), (16, 16), writeable=False
        )

    def _phase_plane(self, fy_i: int, fx_i: int) -> np.ndarray:
        """Whole-plane bilinear interpolation for one quarter-pel phase.

        The fractional phase is position-independent, so interpolating the
        full plane once (horizontal lerp, then vertical — the same per-pixel
        expression tree as the per-block fetch) turns every later fetch of
        that phase into a plain slice. Like x264's precomputed half-pel
        planes. The float32 plane equals interpolating the block in float64
        because both are exact on the 1/16 grid: a horizontal step gives
        quarters, a vertical one sixteenths, all below 256.
        """
        cache = self._phase_planes
        key = (fy_i, fx_i)
        plane = cache.get(key)
        if plane is None:
            plane = self._float_plane
            if fx_i:
                fx = fx_i * 0.25
                plane = plane[:, :-1] * (1 - fx) + plane[:, 1:] * fx
            if fy_i:
                fy = fy_i * 0.25
                plane = plane[:-1] * (1 - fy) + plane[1:] * fy
            cache[key] = plane
        return plane

    def half_pel_block(self, y4: int, x4: int, size: int = 16) -> np.ndarray:
        """Fetch a block at quarter-pel coordinates via bilinear interp.

        Integer index/fraction math (exact: the fractions are quarters, so
        ``(y4 & 3) * 0.25`` is bit-equal to the float remainder) slices a
        lazily cached float32 whole-plane interpolation for the phase (see
        :meth:`_phase_plane`), which is exact on the 1/16 grid and so equals
        interpolating the block in place in float64.
        """
        y0 = (y4 >> 2) + self.pad
        x0 = (x4 >> 2) + self.pad
        # Views of the cached phase plane: subpel scoring and prediction
        # fetches never mutate fetched blocks.
        plane = self._phase_plane(y4 & 3, x4 & 3)
        return plane[y0 : y0 + size, x0 : x0 + size]


@dataclass(kw_only=True, slots=True)
class MotionSearchResult:
    """Outcome of one block's motion search against one reference."""

    mv_x: int  # quarter-pel
    mv_y: int
    cost: float  # SAD (or SATD at high subme) at the chosen position
    n_points: int  # candidate positions evaluated
    positions: list[tuple[int, int]] = field(default_factory=list)  # full-pel visits
    improvements: list[bool] = field(default_factory=list)  # per-candidate "new best"


class _SearchWindow:
    """Integer candidate scoring over one block's full search window.

    A slice of the reference's :attr:`PaddedReference.sad_blocks` exposes
    every candidate block of the ``(2*merange+16)``-pixel window with no
    copy, so scoring a round of candidates is a single fancy-index gather
    plus one reduction. Integer arithmetic makes each batched SAD exactly
    equal to a per-candidate 64-bit SAD.
    """

    __slots__ = ("cur", "views", "merange")

    def __init__(
        self,
        cur: np.ndarray,
        ref: PaddedReference,
        base_y: int,
        base_x: int,
        merange: int,
    ) -> None:
        y0 = base_y - merange + ref.pad
        x0 = base_x - merange + ref.pad
        n = 2 * merange + 1
        self.views = ref.sad_blocks[y0 : y0 + n, x0 : x0 + n]
        self.cur = cur.astype(np.int16)
        self.merange = merange

    def sad(self, cx: int, cy: int) -> float:
        m = self.merange
        return float(np.abs(self.cur - self.views[cy + m, cx + m]).sum())

    def sads(self, cands: list[tuple[int, int]]) -> np.ndarray:
        m = self.merange
        ys = np.fromiter((cy + m for _, cy in cands), dtype=np.intp, count=len(cands))
        xs = np.fromiter((cx + m for cx, _ in cands), dtype=np.intp, count=len(cands))
        blocks = self.views[ys, xs]
        return np.abs(self.cur[None] - blocks).reshape(len(cands), -1).sum(axis=1)


def _pattern_search(
    win: _SearchWindow,
    start: tuple[int, int],
    offsets: tuple[tuple[int, int], ...],
    *,
    max_iters: int = 64,
) -> MotionSearchResult:
    """Iterative pattern search (shared by dia and hex coarse stages):
    each round's candidates scored in one shot."""
    merange = win.merange
    best_dx, best_dy = start
    best_cost = win.sad(best_dx, best_dy)
    n_points = 1
    positions = [(best_dx, best_dy)]
    improvements = [True]
    seen = {(best_dx, best_dy)}
    for _ in range(max_iters):
        center = (best_dx, best_dy)
        cands: list[tuple[int, int]] = []
        for dx, dy in offsets:
            cx, cy = center[0] + dx, center[1] + dy
            if abs(cx) > merange or abs(cy) > merange or (cx, cy) in seen:
                continue
            seen.add((cx, cy))
            cands.append((cx, cy))
        if not cands:
            break
        if len(cands) <= 2:
            # Gather overhead beats two plain reductions; values match.
            costs = [win.sad(cx, cy) for cx, cy in cands]
        else:
            costs = win.sads(cands)
        improved = False
        for (cx, cy), cost_i in zip(cands, costs):
            cost = float(cost_i)
            n_points += 1
            positions.append((cx, cy))
            better = cost < best_cost
            improvements.append(better)
            if better:
                best_cost = cost
                best_dx, best_dy = cx, cy
                improved = True
        if not improved:
            break
    return MotionSearchResult(
        mv_x=best_dx * 4, mv_y=best_dy * 4, cost=best_cost, n_points=n_points,
        positions=positions, improvements=improvements,
    )


def _dia_search(win: _SearchWindow, pred) -> MotionSearchResult:
    return _pattern_search(win, pred, _DIA_OFFSETS)


def _hex_search(win: _SearchWindow, pred) -> MotionSearchResult:
    coarse = _pattern_search(win, pred, _HEX_OFFSETS)
    # Final small-diamond refinement around the hexagon winner.
    fine = _pattern_search(
        win, (coarse.mv_x // 4, coarse.mv_y // 4), _DIA_OFFSETS, max_iters=2
    )
    fine.n_points += coarse.n_points
    fine.positions = coarse.positions + fine.positions
    fine.improvements = coarse.improvements + fine.improvements
    return fine


def _umh_search(win: _SearchWindow, pred) -> MotionSearchResult:
    """Simplified uneven multi-hexagon: cross + scaled hexagon grid + hex.

    The cross stage's candidate positions are fixed up front, so the whole
    cross is scored in one batch; the hexagon rings re-center on the
    running best mid-loop and therefore stay sequential (each candidate
    scored on the shared window).
    """
    merange = win.merange
    best = _pattern_search(win, pred, _DIA_OFFSETS, max_iters=1)
    n_points = best.n_points
    positions = list(best.positions)
    improvements = list(best.improvements)
    best_dx, best_dy = best.mv_x // 4, best.mv_y // 4
    best_cost = best.cost
    # Cross search: horizontal & vertical lines at stride 2.
    cross = [
        (cx, cy)
        for d in range(2, merange + 1, 2)
        for cx, cy in ((d, 0), (-d, 0), (0, d), (0, -d))
    ]
    if cross:
        for (cx, cy), cost_i in zip(cross, win.sads(cross)):
            cost = float(cost_i)
            n_points += 1
            positions.append((cx, cy))
            better = cost < best_cost
            improvements.append(better)
            if better:
                best_cost, best_dx, best_dy = cost, cx, cy
    # Multi-hexagon grid: hexagons of growing radius around current best.
    for radius in (2, 4, 8):
        if radius > merange:
            break
        for hx, hy in _HEX_OFFSETS:
            cx = best_dx + hx * radius // 2
            cy = best_dy + hy * radius // 2
            if abs(cx) > merange or abs(cy) > merange:
                continue
            cost = win.sad(cx, cy)
            n_points += 1
            positions.append((cx, cy))
            better = cost < best_cost
            improvements.append(better)
            if better:
                best_cost, best_dx, best_dy = cost, cx, cy
    # Final hexagon refinement from the grid winner.
    refine = _hex_search(win, (best_dx, best_dy))
    if refine.cost < best_cost:
        result = refine
    else:
        result = MotionSearchResult(
            mv_x=best_dx * 4, mv_y=best_dy * 4, cost=best_cost, n_points=0
        )
    result.n_points += n_points
    result.positions = positions + result.positions
    result.improvements = improvements + result.improvements
    return result


def _esa_search(
    cur, ref: PaddedReference, merange, base_y, base_x, pred, *, use_satd=False
) -> MotionSearchResult:
    """Exhaustive search over the full window, vectorized.

    tesa additionally re-scores the best SAD candidates with SATD
    (Hadamard) in one batch, as x264's transformed exhaustive search does.
    """
    y0 = base_y - merange + ref.pad
    x0 = base_x - merange + ref.pad
    span = 2 * merange + 16
    window = ref.plane[y0 : y0 + span, x0 : x0 + span]
    views = sliding_window_view(window, (16, 16))  # (2R+1, 2R+1, 16, 16)
    diffs = np.abs(views.astype(np.int64) - cur.astype(np.int64))
    sads = diffs.sum(axis=(2, 3))
    n_points = sads.size
    if use_satd:
        # Re-score the 8 best SAD positions with SATD.
        flat = np.argsort(sads, axis=None)[:8]
        best_cost = np.inf
        best_pos = (0, 0)
        iys, ixs = np.unravel_index(flat, sads.shape)
        costs = hadamard_sad_batch(cur, views[iys, ixs])
        for j in range(len(flat)):
            cost = float(costs[j])
            n_points += 1
            if cost < best_cost:
                best_cost = cost
                best_pos = (int(ixs[j]) - merange, int(iys[j]) - merange)
        best_dx, best_dy = best_pos
    else:
        iy, ix = np.unravel_index(int(np.argmin(sads)), sads.shape)
        best_dx, best_dy = int(ix) - merange, int(iy) - merange
        best_cost = float(sads[iy, ix])
    # Record a bounded sample of visited positions (the full raster).
    positions = [
        (dx, dy)
        for dy in range(-merange, merange + 1, max(1, merange // 4))
        for dx in range(-merange, merange + 1, max(1, merange // 4))
    ]
    return MotionSearchResult(
        mv_x=best_dx * 4, mv_y=best_dy * 4, cost=float(best_cost),
        n_points=int(n_points), positions=positions,
    )


_METHODS = {
    "dia": _dia_search,
    "hex": _hex_search,
    "umh": _umh_search,
}


def motion_search(
    cur: np.ndarray,
    ref: PaddedReference,
    base_y: int,
    base_x: int,
    *,
    method: str = "hex",
    merange: int = 16,
    pred_mv: tuple[int, int] = (0, 0),
) -> MotionSearchResult:
    """Integer-pel motion search for a 16x16 block.

    ``pred_mv`` is the full-pel motion-vector prediction used as the
    search start (the median predictor in the encoder). Raises
    ``ValueError`` on an unknown method name.
    """
    if cur.shape != (16, 16):
        raise ValueError(f"expected 16x16 current block, got {cur.shape}")
    start = (
        int(max(-merange, min(merange, pred_mv[0]))),
        int(max(-merange, min(merange, pred_mv[1]))),
    )
    if method in _METHODS:
        win = _SearchWindow(cur, ref, base_y, base_x, merange)
        return _METHODS[method](win, start)
    if method == "esa":
        return _esa_search(cur, ref, merange, base_y, base_x, start)
    if method == "tesa":
        return _esa_search(cur, ref, merange, base_y, base_x, start, use_satd=True)
    raise ValueError(f"unknown motion estimation method {method!r}")


def subpel_refine(
    cur: np.ndarray,
    ref: PaddedReference,
    base_y: int,
    base_x: int,
    result: MotionSearchResult,
    *,
    subme: int,
) -> MotionSearchResult:
    """Fractional-pel refinement gated by ``subme`` (paper Table II row).

    subme 0-1: none; 2-3: half-pel; 4-5: quarter-pel; 6+: quarter-pel
    scored with SATD (x264 switches to SATD/RD at higher levels). Returns
    a new result; ``n_points`` counts additional evaluations.

    The refinement is greedy (each candidate position depends on the
    running best), so it walks a sequential pattern; only the cost
    evaluation is cheapened (hoisted float cast, cached phase planes,
    fixed-path SATD, memoized revisits).
    """
    if subme < 2:
        return result
    steps: list[int] = [2]  # half-pel
    if subme >= 4:
        steps.append(1)  # quarter-pel
    use_satd = subme >= 6

    # Differences in float32, like the phase planes: each is a multiple of
    # 1/16 below 256 in magnitude, so a SAD of 256 of them stays below 2**16
    # and ``satd_16x16``'s float32 products are exact too.
    cur_f32 = cur.astype(np.float32)
    # cost_at is pure, and the drifting diamond revisits positions;
    # memoizing repeated evaluations returns the identical float while the
    # n_points accounting below still counts every visit.
    cache: dict[tuple[int, int], float] = {}

    def cost_at(y4: int, x4: int) -> float:
        key = (y4, x4)
        cost = cache.get(key)
        if cost is None:
            block = ref.half_pel_block(base_y * 4 + y4, base_x * 4 + x4)
            if use_satd:
                cost = satd_16x16(cur_f32 - block)
            else:
                cost = float(np.abs(cur_f32 - block).sum())
            cache[key] = cost
        return cost

    best_x, best_y = result.mv_x, result.mv_y
    best_cost = cost_at(best_y, best_x)
    n_points = result.n_points + 1
    for step in steps:
        improved = True
        iters = 0
        while improved and iters < 4:
            improved = False
            iters += 1
            for dx, dy in _DIA_OFFSETS:
                cx, cy = best_x + dx * step, best_y + dy * step
                cost = cost_at(cy, cx)
                n_points += 1
                if cost < best_cost:
                    best_cost, best_x, best_y = cost, cx, cy
                    improved = True
    return MotionSearchResult(
        mv_x=best_x, mv_y=best_y, cost=best_cost, n_points=n_points,
        positions=result.positions, improvements=result.improvements,
    )


def fetch_prediction(
    ref: PaddedReference, y: int, x: int, mv_x4: int, mv_y4: int
) -> np.ndarray:
    """Fetch the 16x16 prediction for a quarter-pel MV.

    The encoder's fetch: full-pel MVs use the direct block fetch (float64),
    fractional MVs bilinear interpolation (a float32 view of the phase
    plane). The decoder interpolates the same per-pixel expression from a
    17x17 patch in float64; both are exact on the 1/16 grid, so the values
    are equal.
    """
    if mv_x4 % 4 == 0 and mv_y4 % 4 == 0:
        return ref.block(y + (mv_y4 >> 2), x + (mv_x4 >> 2)).astype(np.float64)
    return ref.half_pel_block(y * 4 + mv_y4, x * 4 + mv_x4)


def predict_mv(
    mv_grid: list[list[MotionVector | None]], mb_y: int, mb_x: int
) -> MotionVector:
    """Median MV predictor from the left / top / top-right neighbors
    (the one rule the encoder and the decoder must agree on)."""
    neighbors: list[MotionVector] = []
    if mb_x > 0 and mv_grid[mb_y][mb_x - 1] is not None:
        neighbors.append(mv_grid[mb_y][mb_x - 1])  # type: ignore[arg-type]
    if mb_y > 0 and mv_grid[mb_y - 1][mb_x] is not None:
        neighbors.append(mv_grid[mb_y - 1][mb_x])  # type: ignore[arg-type]
    if (
        mb_y > 0
        and mb_x + 1 < len(mv_grid[0])
        and mv_grid[mb_y - 1][mb_x + 1] is not None
    ):
        neighbors.append(mv_grid[mb_y - 1][mb_x + 1])  # type: ignore[arg-type]
    if not neighbors:
        return MotionVector(0, 0, 0)
    return MotionVector(
        _median([m.dx for m in neighbors]), _median([m.dy for m in neighbors]), 0
    )


def _median(values: list[int]) -> int:
    """``int(np.median(values))`` for one to three ints, without the array
    round trip: the middle value, or two values' mean truncated toward zero."""
    if len(values) == 2:
        return int((values[0] + values[1]) / 2)
    return sorted(values)[len(values) // 2]
