"""Benchmark workloads: per-kernel micro-benchmarks and the fig3 slice.

Every workload is deterministic (fixed seeds, fixed shapes) and is run
under both kernel backends with the same inputs, so the per-kernel
speedups isolate exactly what each rewrite bought. Every row — a kernel,
a fig3 cell, the fig3 total — has the same two maps: ``backends`` (time
per backend) and ``speedups`` (reference time over ``vectorized``'s).
Per-repetition wall times go through the shared
:class:`repro.obs.MetricsRegistry` histograms; the summary payload embeds
the registry snapshot so ``BENCH_*.json`` doubles as a telemetry
artifact.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable

import numpy as np

from repro.codec import kernels
from repro.obs import MetricsRegistry

__all__ = [
    "ENCODE_CELLS",
    "KERNEL_BENCH_NAMES",
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
_ENCODE_REPS = 2  # best-of per cell and backend; `--reps` is kernels only


def _bench_scene(width: int = 112, height: int = 64, n_frames: int = 12):
    from repro.video.synthetic import SceneSpec, generate_scene

    return generate_scene(
        SceneSpec(
            width=width, height=height, n_frames=n_frames, seed=3, name="bench"
        )
    )


def _time_call(fn: Callable[[], object], reps: int) -> list[float]:
    """Wall time of ``fn`` over ``reps`` repetitions (after one warmup)."""
    fn()  # warmup: first-touch caches, lazy imports
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def _speedups(times: dict[str, float]) -> dict[str, float]:
    """Reference time over every other backend's time."""
    ref = times["reference"]
    return {b: ref / t for b, t in times.items() if b != "reference"}


# --- kernel workloads -------------------------------------------------------
# Each builder returns (units, thunk): `thunk()` runs the workload once
# under the ambient backend; `units` is the block count for ns/block.


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


def _bench_encode_chroma_plane():
    from repro.codec.chroma import encode_chroma_plane
    from repro.codec.entropy import BitWriter

    video = _bench_scene(n_frames=2)
    plane = video.frames[0].luma[::2, ::2]  # chroma-resolution plane
    prev = video.frames[1].luma[::2, ::2]

    def thunk():
        encode_chroma_plane(BitWriter(), plane, prev, luma_qp=26)

    n_blocks = (plane.shape[0] // 8) * (plane.shape[1] // 8)
    return n_blocks, thunk


_KERNEL_BENCHES: dict[str, Callable[[], tuple[int, Callable[[], object]]]] = {
    "transform.forward_4x4": _bench_forward_4x4,
    "transform.satd_batch": _bench_satd_batch,
    "entropy.encode_blocks": _bench_encode_blocks,
    "intra.predict_4x4_blocks": _bench_predict_4x4_blocks,
    "intra.best_intra_16x16": _bench_best_intra_16x16,
    "motion.motion_search_hex": _bench_motion_search_hex,
    "motion.subpel_refine": _bench_subpel_refine,
    "deblock.deblock_plane": _bench_deblock_plane,
    "chroma.encode_chroma_plane": _bench_encode_chroma_plane,
}

KERNEL_BENCH_NAMES: tuple[str, ...] = tuple(_KERNEL_BENCHES)


def run_kernel_benches(
    registry: MetricsRegistry,
    *,
    reps: int = 3,
    names: Iterable[str] | None = None,
) -> dict[str, dict[str, object]]:
    """Time each kernel workload under both backends.

    Returns ``{kernel: row}``; a row is ``blocks``, ``backends`` (ns per
    block per backend) and ``speedups`` (vs. reference, per
    non-reference backend). Per-rep seconds additionally land in
    ``registry`` histograms named ``bench.kernel.<name>.<backend>_s``.
    """
    results: dict[str, dict[str, object]] = {}
    for name in names if names is not None else KERNEL_BENCH_NAMES:
        builder = _KERNEL_BENCHES[name]
        per_backend: dict[str, float] = {}
        units = 0
        for backend in kernels.KERNEL_BACKENDS:
            with kernels.backend_scope(backend):
                units, thunk = builder()
                times = _time_call(thunk, reps)
            hist = registry.histogram(f"bench.kernel.{name}.{backend}_s")
            for t in times:
                hist.observe(t)
            per_backend[backend] = min(times)
        results[name] = {
            "blocks": float(units),
            "backends": {b: t / units * 1e9 for b, t in per_backend.items()},
            "speedups": _speedups(per_backend),
        }
    return results


def run_encode_fig3(
    registry: MetricsRegistry,
    *,
    reps: int = _ENCODE_REPS,
    cells: tuple[tuple[int, int], ...] = ENCODE_CELLS,
    n_frames: int = _ENCODE_FRAMES,
) -> dict[str, object]:
    """Encode the fig3 slice under both backends.

    The slice is the encode stage of the paper's Figure-3 crf x refs grid
    (the simulator downstream is backend-independent). Returns the clip
    geometry, one row per cell and the slice totals; ``backends`` is
    seconds per backend throughout.
    """
    from repro.codec.encoder import encode
    from repro.codec.options import EncoderOptions

    width, height = _ENCODE_SIZE
    video = _bench_scene(width=width, height=height, n_frames=n_frames)
    totals = dict.fromkeys(kernels.KERNEL_BACKENDS, 0.0)
    per_cell = []
    for crf, refs in cells:
        opts = EncoderOptions(crf=crf, refs=refs)
        cell_times: dict[str, float] = {}
        for backend in kernels.KERNEL_BACKENDS:
            with kernels.backend_scope(backend):
                times = _time_call(lambda: encode(video, opts), reps)
            hist = registry.histogram(
                f"bench.encode.crf{crf}_refs{refs}.{backend}_s"
            )
            for t in times:
                hist.observe(t)
            cell_times[backend] = min(times)
            totals[backend] += min(times)
        per_cell.append(
            {
                "crf": crf,
                "refs": refs,
                "backends": cell_times,
                "speedups": _speedups(cell_times),
            }
        )
    return {
        "width": width,
        "height": height,
        "n_frames": n_frames,
        "cells": per_cell,
        "backends": totals,
        "speedups": _speedups(totals),
    }


def run_bench(*, reps: int = 3, quick: bool = False) -> dict[str, object]:
    """Run the full suite and return the ``BENCH_*.json`` payload.

    ``reps`` counts kernel repetitions only; the fig3 slice keeps its own.
    ``quick`` trims the slice to its three unique crf values at one refs
    setting and single repetitions — for smoke use; quick artifacts are
    still comparable because the gate reads speedup ratios.
    """
    from repro.bench.report import build_payload

    registry = MetricsRegistry()
    kernel_results = run_kernel_benches(registry, reps=reps)
    if quick:
        encode = run_encode_fig3(
            registry, reps=1, cells=((1, 1), (23, 8), (51, 1)), n_frames=8
        )
    else:
        encode = run_encode_fig3(registry)
    return build_payload(kernel_results, encode, registry, quick=quick)
