#!/usr/bin/env python
"""Stage tables: where one perfbench workload spends its time, read from outside.

``PYTHONPATH=src python tools/budget.py WORKLOAD`` sets up the named perfbench
workload, runs its ops once, wraps each stage of its table with a
``perf_counter`` pair (``src/`` carries no span or switch for one) and prints,
for the fastest timed pass, each stage's share, calls per op (or wave) and
microseconds per call. Times are *inclusive* (an indented row is part of the
row above it) and include ~0.3 us of wrapper per call: compare two runs of this
tool with each other, and read absolute time off perfbench. The ``*`` rows are
also summed over their outermost calls (a marked row inside another counts
once): ``trace side`` is that sum, ``runner glue`` the pass outside it. A stage
the checkout lacks prints with no calls, so an older checkout's ``src`` works.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))  # `perfbench`

from repro.codec import decoder, encoder, entropy, mbdecision  # noqa: E402
from repro.codec.tracemodel import EncodeTrace  # noqa: E402
from repro.experiments import cache as result_cache, runner  # noqa: E402
from repro.ffmpeg import transcode as transcode_mod  # noqa: E402
from repro.trace.kernels import build_program  # noqa: E402
from repro.trace.recorder import RecordingTracer  # noqa: E402
from repro.uarch import branch, cache, configs, icache, simulator  # noqa: E402

OUTER = "*"  # key of the sum over the outermost calls of the ``*`` rows
GLUE = "runner glue (rest)"


class Table(NamedTuple):
    stages: tuple  # (label, owner, attribute); indent = nesting, trailing * = marked
    passes: int  # timed passes, fastest kept (the host drifts); compare tables at equal counts
    repeats: int = 1  # runs of the workload's ops per pass (one op is too short)
    unit: str = "op"
    setup: Callable | None = None  # tmp dir -> ``ops`` + ``call(op)``; default perfbench's
    split: tuple | None = None  # (row, call args -> key): that row's calls by key
    extra: Callable = lambda workload, run: []  # rows printed after the stages


class Run(NamedTuple):  # the fastest pass: its seconds, and seconds and calls by key
    whole: float
    seconds: dict
    calls: dict
    ops: int  # per pass
    unit: str

    def header(self, label: str) -> str:
        return f"{label:36s} {'share':>7s} {'calls/' + self.unit:>10s} {'us/call':>10s}"

    def row(self, label: str, key=None) -> str:
        key = label if key is None else key
        n, spent = self.calls.get(key, 0), self.seconds.get(key, 0.0)
        mark = "*" if label.endswith("*") else " "
        return (
            f"{label.rstrip('*'):35s}{mark} {spent / self.whole:7.1%} "
            f"{n / self.ops:10.1f} {spent / max(n, 1) * 1e6:10.2f}"
        )


def _geometry(workload, run: Run) -> list[str]:
    keys = sorted(k for k in run.calls if isinstance(k, tuple))
    return ["", run.header("_lru_window by sets x ways")] + [
        run.row(f"  {n_sets} x {assoc}", (n_sets, assoc)) for n_sets, assoc in keys
    ]


def _trace_side(workload, run: Run) -> list[str]:
    side = run.seconds.get(OUTER, 0.0)
    share = side / run.whole
    return [f"{'trace side (*)':36s} {share:7.1%} {side / run.ops * 1e3:10.1f} ms per op"]


def _glue(workload, run: Run) -> list[str]:
    if workload.hit_ratio() != 1.0:
        raise SystemExit("a lookup missed: the table would time a cold cell")
    run.seconds[GLUE] = run.whole - run.seconds.get(OUTER, 0.0)
    run.calls[GLUE] = len(workload.cold) * run.ops
    return [run.row(GLUE)]


def _cells(tmp: Path):
    """``profile_grid``'s cells, one op each: a traced encode, then its first simulate()."""
    from perfbench.workloads import load_clip
    from perfbench.workloads.profile_grid import CELLS, _spec

    specs = [_spec(cell) for cell in CELLS]
    quick = runner.QUICK
    clips = {spec.video: load_clip(spec.video, quick) for spec in specs}
    config = configs.baseline_config().with_updates(data_capacity_scale=quick.data_capacity_scale)

    def call(spec) -> None:
        program = build_program()
        tracer = RecordingTracer(program, sample=quick.sample)
        encoder.Encoder(spec.options, tracer=tracer).encode(clips[spec.video])
        simulator.simulate(tracer.stream, program, config)

    return SimpleNamespace(ops=specs, call=call)


TABLES = {
    # Decoder per-frame stages, Encoder stage methods and the entry points they call.
    "transcode_ladder": Table(passes=5, stages=(
        ("decode", transcode_mod, "decode_stream"),
        ("  Decoder._parse", decoder.Decoder, "_parse"),
        ("    BitReader._fill", entropy.BitReader, "_fill"),
        ("  Decoder._reconstruct", decoder.Decoder, "_reconstruct"),
        ("Encoder.encode", encoder.Encoder, "encode"),
        ("  plan_gop", encoder, "plan_gop"),
        ("  _search_inter", encoder.Encoder, "_search_inter"),
        ("    choose_inter_ref", encoder, "choose_inter_ref"),
        ("      motion_search", mbdecision, "motion_search"),
        ("      subpel_refine", mbdecision, "subpel_refine"),
        ("    search_partitions", encoder, "search_partitions"),
        ("    fetch_prediction", encoder, "fetch_prediction"),
        ("  _search_intra", encoder.Encoder, "_search_intra"),
        ("    best_intra_16x16", encoder, "best_intra_16x16"),
        ("    predict_4x4_blocks", encoder, "predict_4x4_blocks"),
        ("  _emit_intra4", encoder.Encoder, "_emit_intra4"),
        ("  _transform_and_code", encoder.Encoder, "_transform_and_code"),
        ("    encode_blocks", encoder, "encode_blocks"),
        ("  _emit_skip", encoder.Encoder, "_emit_skip"),
        ("  _run_deblock", encoder.Encoder, "_run_deblock"),
    )),
    # simulate()'s model steps, then _lru_window by (n_sets, assoc), its args 3 and 4.
    "fleet_replay": Table(passes=5, repeats=8, unit="wave", stages=(
        ("Simulator._run_impl", simulator.Simulator, "_run_impl"),
        ("  AnalyticICache.run", icache.AnalyticICache, "run"),
        ("  HierarchyReplay.replay", cache.HierarchyReplay, "replay"),
        ("    _lru_window", cache, "_lru_window"),
        ("    HierarchyReplay._count_misses", cache.HierarchyReplay, "_count_misses"),
        ("  BranchModel.evaluate", branch.BranchModel, "evaluate"),
        ("    _two_level_by_history", branch, "_two_level_by_history"),
        ("  simulator.run_core_model", simulator, "run_core_model"),
    ), split=("    _lru_window", lambda args: (args[2], args[3])), extra=_geometry),
    # A traced encode and the first simulate(); the ``*`` rows are what tracing
    # costs (``frame_modes`` runs the batch, ``entropy_coeffs`` the header).
    "profile_grid": Table(passes=3, setup=_cells, extra=_trace_side, stages=(
        ("Encoder.encode", encoder.Encoder, "encode"),
        *((f"  EncodeTrace.{name}*", EncodeTrace, name) for name in (
            "lookahead", "frame_setup", "macroblock", "me", "interp", "partition_search",
            "part_split", "intra_probe", "transform_path", "entropy_coeffs", "entropy_header",
            "recon_write", "frame_modes", "chroma_plane", "deblock", "rc_update", "dpb_store",
        )),
        ("  EncodeTrace._drain*", EncodeTrace, "_drain"),
        ("    RecordingTracer.append", RecordingTracer, "append"),
        ("  RecordingTracer.kernel", RecordingTracer, "kernel"),
        ("  RecordingTracer._seal*", RecordingTracer, "_seal"),
        ("simulate (first)", simulator, "simulate"),
    )),
    # A warm lookup of 50 cells (the preset ladder calls preset_options before
    # _spec too); the glue is everything outside the ``*`` rows. The key's
    # serialization of the options is ``canonical_json``; the rest, one sha256.
    "sweep_warm": Table(passes=7, repeats=20, extra=_glue, stages=(
        ("SweepRunner._spec*", runner.SweepRunner, "_spec"),
        ("  preset_options*", runner, "preset_options"),
        ("PointSpec.memo_key*", runner.PointSpec, "memo_key"),
        ("SweepRunner._lookup*", runner.SweepRunner, "_lookup"),
        ("  PointSpec.cache_key*", runner.PointSpec, "cache_key"),
        ("    canonical_json*", result_cache, "canonical_json"),
        ("  ResultCache.get_record*", result_cache.ResultCache, "get_record"),
        ("    ResultCache.get_value*", result_cache.ResultCache, "get_value"),
        ("      JSONDecoder.decode*", json.JSONDecoder, "decode"),
        ("    record_from_payload*", result_cache, "record_from_payload"),
    )),
}


def _wrap(table: Table, label: str, fn, seconds, calls, depth):
    marked = label.endswith("*")
    split = table.split[1] if table.split and table.split[0] == label else None

    def timed(*args, **kwargs):
        outermost = marked and not depth[0]
        depth[0] += marked
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent = time.perf_counter() - start
            depth[0] -= marked
            if outermost:
                seconds[OUTER] += spent
            for key in (label, split(args)) if split else (label,):
                seconds[key] += spent
                calls[key] += 1

    return timed


def measure(table: Table, workload) -> Run:
    """Wrap the table's stages, time its passes and keep the fastest."""
    seconds: dict = defaultdict(float)  # by row label, split key and OUTER
    calls: dict = defaultdict(int)
    depth = [0]  # how many ``*`` stages are running
    for label, owner, attr in table.stages:
        if hasattr(owner, attr):  # a stage this checkout lacks prints with no calls
            setattr(owner, attr, _wrap(table, label, getattr(owner, attr), seconds, calls, depth))
    ops = table.repeats * len(workload.ops)
    best = None
    for _ in range(table.passes):
        seconds.clear()
        calls.clear()
        start = time.perf_counter()
        for _ in range(table.repeats):
            for op in workload.ops:
                workload.call(op)
        whole = time.perf_counter() - start
        if best is None or whole < best.whole:
            best = Run(whole, dict(seconds), dict(calls), ops, table.unit)
    return best


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=TABLES, help="a perfbench workload")
    name = parser.parse_args(argv).workload
    table = TABLES[name]
    with tempfile.TemporaryDirectory() as tmp:
        if table.setup:
            workload = table.setup(Path(tmp))
        else:
            workload = importlib.import_module(f"perfbench.workloads.{name}").Workload()
            workload.setup(0, False, Path(tmp))  # seed 0: it only orders the ops
        for op in workload.ops:  # warm-up, unwrapped
            workload.call(op)
        run = measure(table, workload)
        print(f"fastest of {table.passes} passes of {run.ops} {run.unit}s: "
              f"{run.whole / run.ops * 1e3:.1f} ms per {run.unit} (wrapped)")
        rows = [run.row(label) for label, _, _ in table.stages]
        print("\n".join([run.header("stage"), *rows, *table.extra(workload, run)]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
