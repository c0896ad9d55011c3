"""Benchmark workloads: per-kernel micro-benchmarks and the fig3 slice.

Every workload is deterministic (fixed seeds, fixed shapes). Each row — a
kernel, a fig3 cell — is timed best-of-N beside a fixed calibration
kernel, and records its **cost**: its best time divided by the
calibration kernel's best time. A host that runs everything uniformly
slower or faster moves both times alike, so the cost is a property of the
code, comparable across hosts. Per-repetition wall times go through the
shared :class:`repro.obs.metrics.MetricsRegistry` histograms; the summary payload
embeds the registry snapshot so ``BENCH_*.json`` doubles as a telemetry
artifact.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections.abc import Callable, Iterable

import numpy as np

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "ENCODE_CELLS",
    "KERNEL_BENCH_NAMES",
    "calibration_kernel",
    "run_bench",
    "run_encode_fig3",
    "run_kernel_benches",
]

# The fig3 slice: corners plus the default operating point of the paper's
# crf x refs heatmap grid (§III-A). Only `encode()` is timed; the whole
# cell (trace, simulate, cache) is perfbench's `profile_grid`.
ENCODE_CELLS: tuple[tuple[int, int], ...] = (
    (1, 1),
    (1, 8),
    (23, 1),
    (23, 8),
    (51, 1),
    (51, 8),
)
_ENCODE_FRAMES = 12
_ENCODE_SIZE = (112, 64)  # (width, height)
_ENCODE_REPS = 2  # best-of per cell; `--reps` is kernels only

_CAL_MATRIX = np.arange(256, dtype=np.float64).reshape(16, 16)
_CAL_PAYLOAD = {f"k{i}": i * 1.25 for i in range(40)}


def calibration_kernel() -> int:
    """The ruler every cost is measured in: a fixed ~10 ms mix of what the
    pipeline executes — bytecode arithmetic, list shuffling, small-array
    NumPy calls, hashing and JSON. (The same mix perfbench calibrates its
    host seconds with, restated here so ``repro`` does not import the
    benchmark.) Changing it rescales every cost, so it changes only with
    a re-measured ``BENCH_baseline.json``."""
    total = 0
    ring = list(range(64))
    for i in range(20000):
        total += i * i
        ring.append(ring.pop(0))
    for _ in range(2000):
        total += int(np.abs(_CAL_MATRIX @ _CAL_MATRIX.T - _CAL_MATRIX).sum()) & 1
    for _ in range(60):
        text = json.dumps(_CAL_PAYLOAD, sort_keys=True)
        total += hashlib.sha256(text.encode("utf-8")).digest()[0]
    return total


def _bench_scene(width: int = 112, height: int = 64, n_frames: int = 12):
    from repro.video.synthetic import SceneSpec, generate_scene

    return generate_scene(
        SceneSpec(
            width=width, height=height, n_frames=n_frames, seed=3, name="bench"
        )
    )


def _seconds(fn: Callable[[], object]) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _time_calibrated(
    fn: Callable[[], object], reps: int
) -> tuple[list[float], float]:
    """Wall times of ``fn`` over ``reps`` repetitions (after one warmup),
    and the best time of the calibration kernel, run once beside each
    repetition so that both see the same host."""
    fn()  # warmup: first-touch caches, lazy imports
    times, cal = [], []
    for _ in range(reps):
        cal.append(_seconds(calibration_kernel))
        times.append(_seconds(fn))
    return times, min(cal)


# --- kernel workloads -------------------------------------------------------
# Each builder returns (units, thunk): `thunk()` runs the workload once;
# `units` is the block count for ns/block.


def _bench_forward_4x4():
    from repro.codec.transform import forward_4x4

    rng = np.random.default_rng(11)
    blocks = rng.uniform(-128, 128, size=(512, 4, 4))
    return 512, lambda: forward_4x4(blocks)


def _bench_satd_batch():
    from repro.codec.transform import satd_batch

    rng = np.random.default_rng(12)
    sets = rng.uniform(-64, 64, size=(64, 16, 4, 4))
    return 64, lambda: satd_batch(sets)


def _bench_encode_blocks():
    from repro.codec.entropy import BitWriter, encode_blocks

    rng = np.random.default_rng(13)
    levels = rng.integers(-4, 5, size=(96, 4, 4)).astype(np.int32)
    levels[np.abs(levels) == 1] = 0  # sparse-ish, like real residuals

    def thunk():
        encode_blocks(BitWriter(), levels)

    return 96, thunk


def _mb_grid(plane: np.ndarray) -> list[tuple[int, int]]:
    h, w = plane.shape
    return [(y, x) for y in range(0, h - 15, 16) for x in range(0, w - 15, 16)]


def _bench_predict_4x4_blocks():
    from repro.codec.intra import predict_4x4_blocks

    video = _bench_scene(n_frames=2)
    src = video.frames[0].luma
    recon = video.frames[1].luma
    mbs = _mb_grid(src)

    def thunk():
        for y, x in mbs:
            predict_4x4_blocks(src[y : y + 16, x : x + 16], recon, y, x)

    return len(mbs), thunk


def _bench_best_intra_16x16():
    from repro.codec.intra import best_intra_16x16

    video = _bench_scene(n_frames=2)
    src = video.frames[0].luma
    recon = video.frames[1].luma
    mbs = _mb_grid(src)

    def thunk():
        for y, x in mbs:
            best_intra_16x16(src[y : y + 16, x : x + 16], recon, y, x)

    return len(mbs), thunk


def _motion_setup():
    from repro.codec.motion import PaddedReference

    video = _bench_scene(n_frames=2)
    cur_plane = video.frames[1].luma
    ref = PaddedReference.from_plane(video.frames[0].luma, pad=24)
    return cur_plane, ref, _mb_grid(cur_plane)


def _bench_motion_search_hex():
    from repro.codec.motion import motion_search

    cur_plane, ref, mbs = _motion_setup()

    def thunk():
        for y, x in mbs:
            motion_search(
                cur_plane[y : y + 16, x : x + 16], ref, y, x, method="hex"
            )

    return len(mbs), thunk


def _bench_subpel_refine():
    from repro.codec.motion import motion_search, subpel_refine

    cur_plane, ref, mbs = _motion_setup()
    starts = [
        motion_search(cur_plane[y : y + 16, x : x + 16], ref, y, x, method="hex")
        for y, x in mbs
    ]

    def thunk():
        for (y, x), res in zip(mbs, starts):
            subpel_refine(
                cur_plane[y : y + 16, x : x + 16], ref, y, x, res, subme=7
            )

    return len(mbs), thunk


def _bench_deblock_plane():
    from repro.codec.deblock import deblock_plane

    video = _bench_scene(n_frames=1)
    plane = video.frames[0].luma
    n_blocks = (plane.shape[0] // 4) * (plane.shape[1] // 4)
    return n_blocks, lambda: deblock_plane(plane, qp=28)


_KERNEL_BENCHES: dict[str, Callable[[], tuple[int, Callable[[], object]]]] = {
    "transform.forward_4x4": _bench_forward_4x4,
    "transform.satd_batch": _bench_satd_batch,
    "entropy.encode_blocks": _bench_encode_blocks,
    "intra.predict_4x4_blocks": _bench_predict_4x4_blocks,
    "intra.best_intra_16x16": _bench_best_intra_16x16,
    "motion.motion_search_hex": _bench_motion_search_hex,
    "motion.subpel_refine": _bench_subpel_refine,
    "deblock.deblock_plane": _bench_deblock_plane,
}

KERNEL_BENCH_NAMES: tuple[str, ...] = tuple(_KERNEL_BENCHES)


def run_kernel_benches(
    registry: MetricsRegistry,
    *,
    reps: int = 3,
    names: Iterable[str] | None = None,
) -> dict[str, dict[str, float]]:
    """Time each kernel workload beside the calibration kernel.

    Returns ``{kernel: row}``; a row is ``blocks``, ``ns_per_block`` (best
    of ``reps``), ``calibration_s`` (the calibration kernel's best beside
    it) and ``cost`` (best seconds over ``calibration_s``). Per-rep
    seconds additionally land in ``registry`` histograms named
    ``bench.kernel.<name>_s``.
    """
    results: dict[str, dict[str, float]] = {}
    for name in names if names is not None else KERNEL_BENCH_NAMES:
        units, thunk = _KERNEL_BENCHES[name]()
        times, cal = _time_calibrated(thunk, reps)
        hist = registry.histogram(f"bench.kernel.{name}_s")
        for t in times:
            hist.observe(t)
        results[name] = {
            "blocks": float(units),
            "ns_per_block": min(times) / units * 1e9,
            "calibration_s": cal,
            "cost": min(times) / cal,
        }
    return results


def run_encode_fig3(
    registry: MetricsRegistry,
    *,
    reps: int = _ENCODE_REPS,
    cells: tuple[tuple[int, int], ...] = ENCODE_CELLS,
    n_frames: int = _ENCODE_FRAMES,
) -> dict[str, object]:
    """Encode the fig3 slice, each cell beside the calibration kernel.

    The slice is the encode stage of the paper's Figure-3 crf x refs grid.
    Returns the clip geometry, one row per cell (best ``seconds`` and its
    ``cost``) and the slice totals: ``seconds`` and ``cost`` summed over
    the cells.
    """
    from repro.codec.encoder import encode
    from repro.codec.options import EncoderOptions

    width, height = _ENCODE_SIZE
    video = _bench_scene(width=width, height=height, n_frames=n_frames)
    per_cell = []
    for crf, refs in cells:
        opts = EncoderOptions(crf=crf, refs=refs)
        times, cal = _time_calibrated(lambda: encode(video, opts), reps)
        hist = registry.histogram(f"bench.encode.crf{crf}_refs{refs}_s")
        for t in times:
            hist.observe(t)
        per_cell.append(
            {"crf": crf, "refs": refs, "seconds": min(times), "cost": min(times) / cal}
        )
    return {
        "width": width,
        "height": height,
        "n_frames": n_frames,
        "cells": per_cell,
        "seconds": sum(cell["seconds"] for cell in per_cell),
        "cost": sum(cell["cost"] for cell in per_cell),
    }


def run_bench(*, reps: int = 3) -> dict[str, object]:
    """Run the full suite and return the ``BENCH_*.json`` payload.

    ``reps`` counts kernel repetitions only; the fig3 slice keeps its own.
    """
    from repro.bench.report import build_payload

    registry = MetricsRegistry()
    kernel_results = run_kernel_benches(registry, reps=reps)
    return build_payload(kernel_results, run_encode_fig3(registry), registry)
