"""The calibrated-cost gate: what does the codec cost, in host-free units?

``repro bench`` times the codec kernels and the ``encode()`` stage of a
small Figure-3 slice, each best-of-N beside a fixed calibration kernel,
and emits a machine-readable ``BENCH_<rev>.json`` artifact
(``repro-bench/v3``). Every row records its **cost**: its best time over
the calibration kernel's best time, which a uniformly faster or slower
host leaves unchanged. Timings are recorded through the :mod:`repro.obs`
metrics registry so bench runs share the telemetry plumbing used
everywhere else.

``repro bench --compare BASELINE.json`` exits 4 when any tracked cost
rose more than 25% (encode slice) or 50% (kernels) above one clean
committed baseline — the CI bench-smoke gate.

Absolute time, the per-layer budget and every performance claim belong
to ``perfbench/``; the paper's tables and figures to ``benchmarks/``.
See ``docs/BENCHMARKS.md``.

Import each name from the submodule that owns it; the package
re-exports nothing.
"""

__all__: list[str] = []
