"""One measured run of one workload, inside the hermetic child process.

``perfbench/run.py`` launches this module with a scrubbed environment and
reads the single JSON line it prints. Closed loop, one client, one thread:
the next timed call starts when the previous one returns. All seconds are
reference-host seconds (:mod:`perfbench.calibrate`).

Untraced (``--trace 0``): whole passes of the workload's ops are timed until
``--seconds`` is used up; a pass is never cut short, so every run measures
the same op mix and a latency sample is ``call seconds / ops in the call``.

Traced (``--trace 1``): a fixed number of passes in which every op is timed
whole and then decomposed - perfbench itself calls each layer under a span -
so the whole op and its layer rows sit side by side in time. Pass counts are
fixed, not timed, so the exact-count rows repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import calibrate
from perfbench.common import load_contract
from perfbench.spans import SpanRecorder
from perfbench.workloads import digest, make_workload

#: Wall seconds of timed calls between two calibration samples.
CALIBRATE_EVERY_S = 0.25


@dataclass
class Window:
    """What one timed window saw; ``*_s`` are reference-host seconds."""

    samples: list[float] = field(default_factory=list)
    ops: int = 0
    failed_calls: int = 0
    passes: int = 0
    call_s: float = 0.0
    cpu_s: float = 0.0
    wall_raw_s: float = 0.0
    kernel_s: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def host_speed(self) -> float:
        """Median speed of this host over the window (1 = the reference host)."""
        return calibrate.scale(statistics.median(self.kernel_s))


def measure(wl, seconds: float) -> Window:
    """Time whole passes until ``seconds`` of wall time are used up.

    Another pass starts only while half a pass still fits, so the window is
    ``seconds`` give or take half a pass. The calibration kernel runs beside
    the timed calls; each call is scaled by the two samples around it.
    """
    w = Window()
    pending: list[tuple[float, float, int]] = []
    since = 0.0
    before = calibrate.sample()
    w.kernel_s.append(before)

    def flush() -> None:
        nonlocal before, since
        after = calibrate.sample()
        w.kernel_s.append(after)
        factor = calibrate.scale(before, after)
        for wall, cpu, n in pending:
            w.samples.append(wall * factor / n)
            w.call_s += wall * factor
            w.cpu_s += cpu * factor
        pending.clear()
        before, since = after, 0.0

    start = time.perf_counter()
    while True:
        wl.begin_pass()
        for op in wl.ops:
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                n = wl.call(op)
            except Exception:  # an op that raises is a failed op, not a dead run
                w.failed_calls += 1
                w.errors.append(traceback.format_exc())
                continue
            wall = time.perf_counter() - t0
            pending.append((wall, time.process_time() - cpu0, n))
            w.ops += n
            since += wall
            if since >= CALIBRATE_EVERY_S:
                flush()
        w.passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / w.passes >= seconds:
            break
    if pending:
        flush()
    w.wall_raw_s = time.perf_counter() - start
    return w


def traced(wl, spans: Path) -> tuple[Window, dict]:
    """``wl.trace_passes`` passes of (whole op, decomposed op) pairs.

    The kernel is sampled before, between and after the two halves of a pair,
    so each half is scaled by the host speed it saw. The bench's own ratios are
    medians over the pairs, so one pair hit by a host hiccup does not decide
    them.
    """
    rows = {m["name"]: 0.0 for m in load_contract()["per_layer"]}
    rec = SpanRecorder(wl.name)
    w = Window()
    whole: list[float] = []
    start = time.perf_counter()
    after = calibrate.sample()
    for _ in range(wl.trace_passes):
        wl.begin_pass()
        for op in wl.ops:
            before = after
            t0 = time.perf_counter()
            n = wl.call(op)
            wall = time.perf_counter() - t0
            between = calibrate.sample()
            wl.trace_op(rec, len(whole), op)
            after = calibrate.sample()
            rec.scale_op(len(whole), calibrate.scale(between, after))
            whole.append(wall * calibrate.scale(before, between))
            w.samples.append(whole[-1] / n)
            w.ops += n
            w.kernel_s += [between, after]
        w.passes += 1
    w.wall_raw_s = time.perf_counter() - start
    w.call_s = sum(whole)
    layer = wl.trace_rows(rec, w.ops, whole)
    unknown = sorted(set(layer) - set(rows))
    if unknown:
        raise KeyError(f"rows missing from BENCHMARK.json per_layer: {unknown}")
    rows.update(layer)
    rec.write(spans)

    roots = rec.roots()
    if len(roots) != len(whole) or any(
        s["parent"] is not None and not 0 <= s["parent"] < s["id"] for s in rec.spans
    ):
        raise AssertionError("spans do not form one tree per timed call")
    layer_sum = statistics.median(
        on_path / call for on_path, call in zip(rec.on_path_by_root(), whole)
    )
    rows["bench.layer_sum_frac"] = layer_sum
    rows["bench.trace_overhead_frac"] = statistics.median(
        rec.duration(root) / call for root, call in zip(roots, whole)
    ) - 1.0
    if wl.name in ("profile_grid", "sweep_warm"):
        rows["experiments.engine_s"] = (1.0 - layer_sum) * w.call_s / w.ops
    return w, rows


def environment(seed: int) -> dict:
    import numpy

    from repro.codec import kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "backend": kernels.active_backend(),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="CLOCK_MONOTONIC when the parent spawned this child")
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    wl = make_workload(args.workload)
    wl.setup(args.seed, args.smoke, args.tmp)
    setup_raw_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0
    wl.setup_scale = calibrate.scale(calibrate.sample())
    setup_s = setup_raw_s * wl.setup_scale
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        window, metrics = traced(wl, args.spans)
    else:
        window = measure(wl, args.seconds)
    if not window.ops:
        sys.stderr.write("".join(window.errors))
        raise SystemExit("perfbench: every timed call raised")
    check_failed, items = wl.check()
    if not args.trace:
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": window.ops / window.call_s,
            "op_s_p50": statistics.median(window.samples),
            "cpu_s_per_op": window.cpu_s / window.ops,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    print(
        json.dumps(
            {
                "workload": wl.name,
                "trace": args.trace,
                "smoke": args.smoke,
                "env": environment(args.seed),
                "attempted": window.ops + window.failed_calls,
                "failed": window.failed_calls + check_failed,
                "errors": window.errors,
                "digest": digest(items),
                "samples": len(window.samples),
                "passes": window.passes,
                "window_raw_s": window.wall_raw_s,
                "host_speed": window.host_speed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
