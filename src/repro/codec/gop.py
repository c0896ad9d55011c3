"""GOP structure: frame-type decision, scene-cut detection, B-adapt.

Decides, for each display-order frame, whether it codes as I, P, or B
(paper §II-A/II-B), honoring the Table II options:

- ``keyint`` — maximum I-frame interval,
- ``scenecut`` — threshold for inserting an I-frame at a content cut,
- ``bframes`` — maximum consecutive B pictures,
- ``b_adapt`` — 0 fixed pattern, 1 fast decision, 2 lookahead (trellis-ish).

Costs are estimated with cheap downscaled SAD probes, mirroring x264's
lookahead which also works on half-resolution frames.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.codec.options import EncoderOptions
from repro.codec.types import FrameType
from repro.video.frame import FrameSequence

__all__ = ["GopPlan", "plan_gop"]


@dataclass(frozen=True)
class GopPlan:
    """Frame types in display order plus the decode (coding) order."""

    frame_types: tuple[FrameType, ...]  # display order
    decode_order: tuple[int, ...]  # display indices in decode order
    scene_cuts: tuple[int, ...]  # display indices that triggered a cut

    def __len__(self) -> int:
        return len(self.frame_types)


def _probe(frame_luma: np.ndarray) -> np.ndarray:
    """Half-resolution probe plane used for cheap cost estimates."""
    h = (frame_luma.shape[0] // 2) * 2
    w = (frame_luma.shape[1] // 2) * 2
    a = frame_luma[:h, :w].astype(np.float64)
    return (a[0::2, 0::2] + a[0::2, 1::2] + a[1::2, 0::2] + a[1::2, 1::2]) / 4.0


def _intra_cost(probe: np.ndarray) -> float:
    """Spatial-gradient proxy for intra coding cost.

    The 0.7 factor reflects that intra prediction removes part of the raw
    gradient energy (DC/directional modes); it is calibrated so that
    smoothly-moving synthetic content scores well below the default
    scene-cut threshold while unrelated frames score above it.
    """
    gy = np.abs(np.diff(probe, axis=0)).sum()
    gx = np.abs(np.diff(probe, axis=1)).sum()
    return 0.7 * float(gx + gy) + 1.0


_PROBE_BLOCK = 4
_PROBE_RANGE = 2  # translations of -2..+2 probe pixels on each axis


def _inter_cost(probe: np.ndarray, ref_probe: np.ndarray) -> float:
    """Motion-compensated SAD proxy for inter coding cost.

    A zero-MV difference wildly overestimates inter cost on moving
    content; like x264's lookahead we run a coarse per-block motion
    search: each 4x4 probe block keeps its best SAD over +/-2-pixel
    translations of the reference (wrapping at the edges, as ``np.roll``
    would). Continuous motion compensates away; scene cuts do not.

    All 25 translations are scored at once, in integers: a probe is a mean
    of four uint8, so 4x a probe is an integer <= 1020 and a 4x4 block's
    SAD of those fits int16. Every sum is exact, so the result is the
    float a per-translation float64 loop returns.
    """
    h = (probe.shape[0] // _PROBE_BLOCK) * _PROBE_BLOCK
    w = (probe.shape[1] // _PROBE_BLOCK) * _PROBE_BLOCK
    if not (h and w):
        return 1.0
    span = 2 * _PROBE_RANGE + 1
    ref = (ref_probe * 4).astype(np.int16)
    rows = np.arange(-_PROBE_RANGE, ref.shape[0] + _PROBE_RANGE)
    cols = np.arange(-_PROBE_RANGE, ref.shape[1] + _PROBE_RANGE)
    padded = ref.take(rows, axis=0, mode="wrap").take(cols, axis=1, mode="wrap")
    # windows[oy, ox] is the reference shifted by (2 - oy, 2 - ox).
    windows = sliding_window_view(padded, (h, w))[:span, :span]
    diff = windows - (probe[:h, :w] * 4).astype(np.int16)  # (5, 5, h, w)
    np.abs(diff, out=diff)
    # 4x4 block sums as strided adds: rows of each block, then columns.
    quads = diff.reshape(span * span, h // _PROBE_BLOCK, _PROBE_BLOCK, w)
    sums = quads[:, :, 0] + quads[:, :, 1]
    sums += quads[:, :, 2]
    sums += quads[:, :, 3]
    blocks = sums[..., 0::4] + sums[..., 1::4]
    blocks += sums[..., 2::4]
    blocks += sums[..., 3::4]
    best = blocks.reshape(span * span, -1).min(axis=0)
    return float(best.sum(dtype=np.int64)) / 4 + 1.0


def _decode_order(frame_types: list[FrameType]) -> list[int]:
    """Decode order: each anchor (I/P) precedes the Bs that reference it."""
    order: list[int] = []
    pending_b: list[int] = []
    for i, ftype in enumerate(frame_types):
        if ftype is FrameType.B:
            pending_b.append(i)
        else:
            order.append(i)
            order.extend(pending_b)
            pending_b.clear()
    # Trailing Bs with no future anchor are coded last (decoder treats the
    # previous anchor as both references).
    order.extend(pending_b)
    return order


def plan_gop(video: FrameSequence, options: EncoderOptions) -> GopPlan:
    """Assign a frame type to every frame of ``video``.

    The first frame is always I. Scene cuts force I-frames. Between
    anchors, up to ``bframes`` consecutive B pictures are placed according
    to ``b_adapt``.
    """
    n = len(video)
    probes = [_probe(f.luma) for f in video]
    icosts = [_intra_cost(p) for p in probes]
    # Scene-cut detection and B-adapt score the same frame pairs: each pair
    # is scored once per plan.
    pair_costs: dict[tuple[int, int], float] = {}

    def inter_cost(i: int, ref: int) -> float:
        if (i, ref) not in pair_costs:
            pair_costs[i, ref] = _inter_cost(probes[i], probes[ref])
        return pair_costs[i, ref]

    # Pass 1: place I frames (keyint + scenecut).
    is_idr = [False] * n
    is_idr[0] = True
    cut_threshold = (100 - options.scenecut) / 100.0
    scene_cuts: list[int] = []
    since_idr = 0
    for i in range(1, n):
        since_idr += 1
        cut = False
        if options.scenecut > 0:
            # x264's cut: the inter cost (pcost) of frame i from frame i - 1
            # reaches (1 - scenecut / 100) of its intra cost (icost).
            cut = inter_cost(i, i - 1) / icosts[i] >= cut_threshold
        if cut or since_idr >= options.keyint:
            is_idr[i] = True
            since_idr = 0
            if cut:
                scene_cuts.append(i)

    # Pass 2: choose P/B between anchors.
    frame_types: list[FrameType] = [FrameType.P] * n
    for i in range(n):
        if is_idr[i]:
            frame_types[i] = FrameType.I

    if options.bframes > 0:
        i = 0
        while i < n:
            if is_idr[i]:
                i += 1
                continue
            # Collect a run of non-IDR frames starting at i.
            run_start = i
            while i < n and not is_idr[i]:
                i += 1
            run_end = i  # exclusive
            _assign_b_frames(
                frame_types, inter_cost, icosts, run_start, run_end, options
            )

    return GopPlan(
        frame_types=tuple(frame_types),
        decode_order=tuple(_decode_order(frame_types)),
        scene_cuts=tuple(scene_cuts),
    )


def _assign_b_frames(
    frame_types: list[FrameType],
    inter_cost: Callable[[int, int], float],
    icosts: list[float],
    start: int,
    end: int,
    options: EncoderOptions,
) -> None:
    """Mark frames in [start, end) as B according to b_adapt policy.

    The last frame of each mini-group stays P (the forward anchor).
    ``inter_cost(i, ref)`` is frame ``i``'s inter cost from frame ``ref``.
    """
    max_b = options.bframes
    i = start
    while i < end:
        group_end = min(i + max_b + 1, end)
        if options.b_adapt == 0:
            # Fixed pattern: all but the last frame of the group are B.
            n_b = group_end - i - 1
        elif options.b_adapt == 1:
            # Fast: extend the B run while consecutive frames are similar.
            n_b = 0
            for j in range(i, group_end - 1):
                sim = inter_cost(j, j - 1) / icosts[j]
                if sim < 0.6:  # cheap to bi-predict
                    n_b += 1
                else:
                    break
        else:
            # Lookahead (b_adapt=2): pick the B-run length minimizing the
            # estimated *per-frame* group cost. B frames cost ~55% of
            # their inter cost (bi-prediction), the anchor P pays for a
            # longer prediction distance; amortizing the anchor over the
            # group makes longer B runs attractive exactly when the
            # content is temporally stable.
            best_cost = np.inf
            n_b = 0
            for cand in range(0, group_end - i):
                anchor = i + cand
                anchor_cost = inter_cost(anchor, i - 1)
                b_cost = sum(
                    0.55 * inter_cost(j, j - 1)
                    for j in range(i, anchor)
                )
                cost = (anchor_cost + b_cost) / (cand + 1)
                if cost < best_cost:
                    best_cost = cost
                    n_b = cand
        for j in range(i, min(i + n_b, group_end - 1)):
            frame_types[j] = FrameType.B
        i += max(1, n_b + 1)
