"""The four workloads and the helpers they share.

Every workload module exposes a ``Workload`` class with the same duck-typed
surface, driven by :mod:`perfbench.child`:

``setup(seed, smoke, tmp)``
    Build inputs from the seed; everything here is charged to ``setup_s``.
``begin_pass()`` / ``ops`` / ``call(op) -> int``
    One pass is every op in ``ops`` once, in the seed-shuffled order;
    ``call`` is the timed call and returns how many ops it covered.
``check() -> (failed_ops, digest_items)``
    Correctness checks and the determinism digest, outside the timed window.
``trace_passes`` / ``trace_op(rec, op_id, op)`` / ``trace_rows(rec, ops, whole)``
    The traced run: after each whole ``call`` perfbench decomposes the same op,
    calling each layer's public function under a span; ``trace_rows`` derives
    the per-layer rows from the spans (``whole`` is the whole calls' seconds).
``setup_scale``
    Set by the child after ``setup``: the host-speed factor for anything a
    workload timed during set-up.

Modules are imported on demand so a workload's ``setup_s`` pays only for the
layers it uses.
"""

from __future__ import annotations

import hashlib
import importlib
import json

from perfbench.common import WORKLOAD_NAMES
from perfbench.spans import SpanRecorder


def make_workload(name: str):
    if name not in WORKLOAD_NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOAD_NAMES}")
    return importlib.import_module(f"perfbench.workloads.{name}").Workload()


def load_clip(name: str, scale):
    """The Table I stand-in clip at an experiment scale's proxy geometry."""
    from repro.video.vbench import load_video

    return load_video(
        name, width=scale.width, height=scale.height, n_frames=scale.n_frames
    )


def digest(items: object) -> str:
    """SHA-256 over canonical JSON; floats keep every digit via ``repr``."""
    text = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def replay_uarch(rec: SpanRecorder, stream, program, cfg) -> int:
    """Stand-alone replays of the two stateful simulator parts, off the op's path.

    ``simulate`` walks data addresses through the cache hierarchy and branch
    outcomes into the predictor in one loop; replaying each alone through the
    same public classes on the same ``effective_*`` geometry gives the
    ``uarch.dcache_s`` and ``uarch.branch_s`` rows (the rest of ``simulate``
    is ``uarch.other_s``). Returns the number of data addresses replayed.
    """
    from repro.trace.events import BranchEvent, MemoryEvent
    from repro.uarch.branch import BranchModel
    from repro.uarch.cache import Cache, CacheHierarchy

    memory = [
        e for e in stream.events if isinstance(e, MemoryEvent) and e.kind != "i"
    ]
    branches = [e for e in stream.events if isinstance(e, BranchEvent)]
    with rec.span("uarch.dcache_replay", on_path=False):
        levels = [
            Cache(cfg.effective_l1d(), "l1d"),
            Cache(cfg.effective_l2_data(), "l2d"),
            Cache(cfg.effective_l3_data(), "l3d"),
        ]
        l4 = cfg.effective_l4_data()
        if l4 is not None:
            levels.append(Cache(l4, "l4d"))
        hierarchy = CacheHierarchy(levels)
        for event in memory:
            hierarchy.access(event.addrs, event.weight)
    with rec.span("uarch.branch_replay", on_path=False):
        model = BranchModel(cfg.branch_predictor)
        for event in branches:
            model.record(event.site, event.outcomes, event.weight)
        model.evaluate(
            total_branches=stream.total_branches,
            branch_hints=program.layout.branch_hints,
        )
    return sum(int(e.addrs.size) for e in memory)


def uarch_rows(rec: SpanRecorder, ops: int, addrs: int, instructions: float) -> dict:
    """The ``uarch.*`` time rows (seconds per op) from the recorded spans."""
    by_config = {
        config: rec.seconds(f"uarch.simulate.{config}")
        for config in ("baseline", "fe_op", "be_op1", "be_op2", "bs_op")
    }
    simulate = sum(map(sum, by_config.values()))
    dcache = rec.total("uarch.dcache_replay")
    branch = rec.total("uarch.branch_replay")
    rows = {
        "uarch.simulate_s": simulate / ops,
        "uarch.minstr_per_s": instructions / 1e6 / simulate,
        "uarch.dcache_s": dcache / ops,
        "uarch.dcache_addrs_per_s": addrs / dcache,
        "uarch.branch_s": branch / ops,
        "uarch.other_s": (simulate - dcache - branch) / ops,
    }
    for config, seconds in by_config.items():
        rows[f"uarch.simulate_s.{config}"] = mean(seconds)
    return rows
