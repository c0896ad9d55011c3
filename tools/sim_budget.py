#!/usr/bin/env python
"""Where a replayed fleet job spends its time, read from outside.

``PYTHONPATH=src python tools/sim_budget.py`` runs ``perfbench``'s
``fleet_replay`` workload — its own set-up and its own waves, imported, not
restated here (four Table III requests, traced once in set-up, then admitted,
placed and replayed on ``fe_op / be_op1 / be_op2 / bs_op`` once per wave) —
and prints, per simulator stage, its share of the whole wave, its calls per
wave and its microseconds per call, then the LRU window split by cache
geometry (sets x ways).

The stages are ``simulate()``'s model steps: the instruction side, the
data-side replay with its per-level LRU windows and miss bookkeeping, the
branch predictor with its per-history counts, and the interval core model.
Each is wrapped here, from outside, with a ``perf_counter`` pair; nothing
under ``src/`` carries a span, counter or switch for it. Times are
*inclusive* (an indented row is part of the row above it), in host seconds,
and include about 0.3 us of wrapper per call, so compare two runs of this
tool with each other and read absolute time off ``perfbench``.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))  # `perfbench`

from perfbench.workloads.fleet_replay import Workload  # noqa: E402
from repro.uarch import branch, cache, icache, simulator  # noqa: E402

#: Timed passes; the fastest is reported (the host's speed drifts by tens of
#: percent over a minute). Two tables are comparable only at the same
#: counts, hence constants.
PASSES = 5
#: Waves per pass: one wave is ~0.1 s, too short to time on its own.
WAVES_PER_PASS = 8

#: (row label, object holding the name, attribute); indentation = nesting.
STAGES = (
    ("Simulator._run_impl", simulator.Simulator, "_run_impl"),
    ("  AnalyticICache.run", icache.AnalyticICache, "run"),
    ("  HierarchyReplay.replay", cache.HierarchyReplay, "replay"),
    ("    _lru_window", cache, "_lru_window"),
    ("    HierarchyReplay._count_misses", cache.HierarchyReplay, "_count_misses"),
    ("  BranchModel.evaluate", branch.BranchModel, "evaluate"),
    ("    _two_level_by_history", branch, "_two_level_by_history"),
    ("  simulator.run_core_model", simulator, "run_core_model"),
)

#: The row split by the cache geometry of each call: ``(n_sets, assoc)`` are
#: its third and fourth arguments.
BY_GEOMETRY = "    _lru_window"


def _wrap(label: str, owner, attr: str, seconds: dict, calls: dict) -> None:
    fn = getattr(owner, attr)

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent = time.perf_counter() - start
            seconds[label] += spent
            calls[label] += 1
            if label == BY_GEOMETRY:
                geometry = (args[2], args[3])
                seconds[geometry] += spent
                calls[geometry] += 1

    setattr(owner, attr, timed)


def main() -> int:
    workload = Workload()
    workload.setup(0, False, None)  # seed 0: it only shuffles the requests
    workload.call("wave")  # warm-up wave, unwrapped

    # keyed by row label, and by (n_sets, assoc) for the geometry split
    seconds: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    for label, owner, attr in STAGES:
        _wrap(label, owner, attr, seconds, calls)
    best: tuple[float, dict, dict] | None = None
    for _ in range(PASSES):
        seconds.clear()
        calls.clear()
        start = time.perf_counter()
        for _ in range(WAVES_PER_PASS):
            workload.call("wave")
        whole = time.perf_counter() - start
        if best is None or whole < best[0]:
            best = (whole, dict(seconds), dict(calls))
    assert best is not None
    whole, seconds, calls = best

    def row(label: str, key) -> str:
        n = calls.get(key, 0)
        spent = seconds.get(key, 0.0)
        per_call = spent / n * 1e6 if n else 0.0
        return (
            f"{label:36s} {spent / whole:7.1%} "
            f"{n / WAVES_PER_PASS:10.1f} {per_call:9.1f}"
        )

    header = f"{'share':>7s} {'calls/wave':>10s} {'us/call':>9s}"
    print(
        f"fastest of {PASSES} passes of {WAVES_PER_PASS} waves: "
        f"{whole / WAVES_PER_PASS * 1e3:.1f} ms per wave (wrapped)"
    )
    print(f"{'stage':36s} {header}")
    for label, _, _ in STAGES:
        print(row(label, label))
    print()
    print(f"{'_lru_window by sets x ways':36s} {header}")
    for n_sets, assoc in sorted(k for k in calls if isinstance(k, tuple)):
        print(row(f"  {n_sets} x {assoc}", (n_sets, assoc)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
