#!/usr/bin/env python
"""Where a warm sweep lookup spends its time, read from outside.

``PYTHONPATH=src python tools/cache_budget.py`` runs ``perfbench``'s
``sweep_warm`` workload — its own set-up and its own op, imported, not
restated here (a fresh ``SweepRunner`` resolving the crf x refs grid, the
preset ladder and the per-video series, 50 cells, from a cache directory
that set-up filled by running the same sweeps cold) — and prints, per
stage, its share of the whole op, its calls per op and its microseconds per
call.

The stages are the spec build (``SweepRunner._spec`` with the
``preset_options`` it calls; the preset ladder also calls
``preset_options`` just before ``_spec``, ten of its calls an op), the
in-process memo key, the lookup with its content key, the entry read, the
JSON parse inside it and the record rebuild. ``runner glue`` is the rest of
the op, the time outside every wrapped call (the runner's loops and dicts,
``describes``, the ``obs`` counters), per cell. Each stage is wrapped here,
from outside, with a ``perf_counter`` pair; nothing under ``src/`` carries
a span, counter or switch for it. Times are *inclusive* (an indented row is
part of the row above it), in host seconds, and include about 0.3 us of
wrapper per call — a visible share of a few-microsecond stage — so compare
two runs of this tool with each other and read absolute time off
``perfbench``.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))  # `perfbench`

from perfbench.workloads.sweep_warm import Workload  # noqa: E402
from repro.experiments import cache, runner  # noqa: E402
from repro.experiments.cache import ResultCache  # noqa: E402
from repro.experiments.runner import PointSpec, SweepRunner  # noqa: E402

#: Timed passes; the fastest is reported (the host's speed drifts by tens of
#: percent over a minute). Two tables are comparable only at the same
#: counts, hence constants.
PASSES = 7
#: Ops per pass: one op is a few milliseconds, too short to time on its own.
OPS_PER_PASS = 20

#: (row label, object holding the name, attribute); indentation = nesting.
STAGES = (
    ("SweepRunner._spec", SweepRunner, "_spec"),
    ("  preset_options", runner, "preset_options"),
    ("PointSpec.memo_key", PointSpec, "memo_key"),
    ("SweepRunner._lookup", SweepRunner, "_lookup"),
    ("  PointSpec.cache_key", PointSpec, "cache_key"),
    ("  ResultCache.get_record", ResultCache, "get_record"),
    ("    ResultCache.get_value", ResultCache, "get_value"),
    ("      JSONDecoder.decode", json.JSONDecoder, "decode"),
    ("    record_from_payload", cache, "record_from_payload"),
)
GLUE = "runner glue (rest)"


def _wrap(label, owner, attr, seconds, calls, depth) -> None:
    fn = getattr(owner, attr)

    def timed(*args, **kwargs):
        outermost = not depth[0]
        depth[0] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent = time.perf_counter() - start
            depth[0] -= 1
            seconds[label] += spent
            calls[label] += 1
            if outermost:
                seconds[GLUE] -= spent

    setattr(owner, attr, timed)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        workload = Workload()
        workload.setup(0, False, Path(tmp))  # seed 0: it only orders the sweeps
        cells = len(workload.cold)
        workload.call("resolve")  # warm-up op, unwrapped

        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        depth = [0]  # how many wrapped stages are running
        for label, owner, attr in STAGES:
            _wrap(label, owner, attr, seconds, calls, depth)
        best: tuple[float, dict[str, float], dict[str, int]] | None = None
        for _ in range(PASSES):
            seconds.clear()
            calls.clear()
            start = time.perf_counter()
            for _ in range(OPS_PER_PASS):
                workload.call("resolve")
            whole = time.perf_counter() - start
            seconds[GLUE] += whole
            if best is None or whole < best[0]:
                best = (whole, dict(seconds), dict(calls))
        if workload.hit_ratio() != 1.0:
            raise SystemExit("a lookup missed: the table would time a cold cell")
    assert best is not None
    whole, seconds, calls = best
    calls[GLUE] = cells * OPS_PER_PASS

    def row(label: str) -> str:
        n = calls.get(label, 0)
        spent = seconds.get(label, 0.0)
        per_call = spent / n * 1e6 if n else 0.0
        return (
            f"{label:36s} {spent / whole:7.1%} "
            f"{n / OPS_PER_PASS:9.1f} {per_call:9.2f}"
        )

    print(
        f"fastest of {PASSES} passes of {OPS_PER_PASS} ops, {cells} cells an op: "
        f"{whole / OPS_PER_PASS / cells * 1e6:.1f} us per cell (wrapped)"
    )
    print(f"{'stage':36s} {'share':>7s} {'calls/op':>9s} {'us/call':>9s}")
    for label, _, _ in STAGES:
        print(row(label))
    print(row(GLUE))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
