"""The backend-ratio gate: how much faster than the oracle is the codec?

``repro bench`` times every backend-dispatched kernel (see
:mod:`repro.codec.kernels`) and the ``encode()`` stage of a small
Figure-3 slice under both backends, and emits a
machine-readable ``BENCH_<rev>.json`` artifact (``repro-bench/v2``).
Timings are recorded through the :mod:`repro.obs` metrics registry so
bench runs share the telemetry plumbing used everywhere else.

The only numbers it stands behind are *ratios*: a regression is a drop
in a backend's speedup over ``reference``, which is stable across
machines of different absolute speed. ``repro bench --compare
BASELINE.json`` exits 4 when any tracked speedup fell more than 25%
(encode slice) or 50% (kernels) below one clean committed baseline —
the CI bench-smoke gate.

Absolute time, the per-layer budget and every performance claim belong
to ``perfbench/``; the paper's tables and figures to ``benchmarks/``.
See ``docs/BENCHMARKS.md``.
"""

from repro.bench.harness import (
    ENCODE_CELLS,
    KERNEL_BENCH_NAMES,
    run_bench,
    run_encode_fig3,
    run_kernel_benches,
)
from repro.bench.report import (
    BENCH_SCHEMA,
    bench_artifact_path,
    compare_bench,
    load_bench,
    render_bench,
    tracked_speedups,
    write_bench,
)

__all__ = [
    "BENCH_SCHEMA",
    "ENCODE_CELLS",
    "KERNEL_BENCH_NAMES",
    "bench_artifact_path",
    "compare_bench",
    "load_bench",
    "render_bench",
    "run_bench",
    "run_encode_fig3",
    "run_kernel_benches",
    "tracked_speedups",
    "write_bench",
]
