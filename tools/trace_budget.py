#!/usr/bin/env python
"""Where a traced encode spends its trace side, read from outside.

``PYTHONPATH=src python tools/trace_budget.py`` runs ``perfbench``'s
``profile_grid`` cells — imported, not restated here (the sweep clip at the
fig3 corners, crf 1 / 23 / 51 x refs 1 / 8, and a second clip under two
presets) — as one op each: a traced encode into a
:class:`~repro.trace.recorder.RecordingTracer`, then the first
``simulate()`` of that trace on the workload's baseline config. It prints,
per stage, its share of the whole op, its calls per op and its microseconds
per call.

The stages are every report of :class:`~repro.codec.tracemodel.EncodeTrace`,
the per-frame batch that turns the held-back reports into trace columns,
the recorder's bulk and one-row appends, the seal, and the first
``simulate()``. Each is wrapped here, from outside, with a ``perf_counter``
pair; nothing under ``src/`` carries a span, counter or switch for it. Times
are *inclusive*, in host seconds, and include about 0.3 us of wrapper per
call, so compare two runs of this tool with each other and read absolute
time off ``perfbench``. A stage a checkout does not have prints with no
calls, so the same file runs on an older checkout for a side-by-side table.

``trace side`` is the time inside the rows marked ``*`` — every report,
the batch and the seal, what a traced encode costs over a plain one —
counted once where they nest (``frame_modes`` runs the batch,
``entropy_coeffs`` reports ``entropy_header``).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))  # `perfbench`

from perfbench.workloads import load_clip  # noqa: E402
from perfbench.workloads.profile_grid import CELLS, _spec  # noqa: E402
from repro.codec.encoder import Encoder  # noqa: E402
from repro.codec.tracemodel import EncodeTrace  # noqa: E402
from repro.experiments.runner import QUICK  # noqa: E402
from repro.trace.kernels import build_program  # noqa: E402
from repro.trace.recorder import RecordingTracer  # noqa: E402
from repro.uarch import simulator  # noqa: E402
from repro.uarch.configs import baseline_config  # noqa: E402

#: Timed passes over the cells; the fastest is reported (the host's speed
#: drifts by tens of percent over a minute). Two tables are comparable only
#: at the same count, hence a constant.
PASSES = 3

_REPORTS = (
    "lookahead", "frame_setup", "macroblock", "me", "interp", "partition_search",
    "part_split", "intra_probe", "transform_path", "entropy_coeffs",
    "entropy_header", "recon_write", "frame_modes", "chroma_plane", "deblock",
    "rc_update", "dpb_store",
)

#: (row label, object holding the name, attribute, part of the trace side);
#: indentation = nesting.
STAGES = (
    ("Encoder.encode", Encoder, "encode", False),
    *((f"  EncodeTrace.{name}", EncodeTrace, name, True) for name in _REPORTS),
    ("  EncodeTrace._drain", EncodeTrace, "_drain", True),
    ("    RecordingTracer.append", RecordingTracer, "append", False),
    ("  RecordingTracer.kernel", RecordingTracer, "kernel", False),
    ("  RecordingTracer._seal", RecordingTracer, "_seal", True),
    ("simulate (first)", simulator, "simulate", False),
)
SIDE = "trace side (*)"


def _wrap(label, owner, attr, side, seconds, calls, depth) -> None:
    fn = getattr(owner, attr, None)
    if fn is None:  # a stage this checkout does not have
        return

    def timed(*args, **kwargs):
        outermost = side and not depth[0]
        depth[0] += side
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent = time.perf_counter() - start
            depth[0] -= side
            seconds[label] += spent
            calls[label] += 1
            if outermost:
                seconds[SIDE] += spent

    setattr(owner, attr, timed)


def main() -> int:
    specs = [_spec(cell) for cell in CELLS]
    clips = {spec.video: load_clip(spec.video, QUICK) for spec in specs}
    config = baseline_config().with_updates(
        data_capacity_scale=QUICK.data_capacity_scale
    )

    def run_op(spec) -> None:
        program = build_program()
        tracer = RecordingTracer(program, sample=QUICK.sample)
        Encoder(spec.options, tracer=tracer).encode(clips[spec.video])
        simulator.simulate(tracer.stream, program, config)

    for spec in specs:  # warm-up pass, unwrapped
        run_op(spec)

    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    depth = [0]  # how many trace-side stages are running
    for label, owner, attr, side in STAGES:
        _wrap(label, owner, attr, side, seconds, calls, depth)
    best: tuple[float, dict[str, float], dict[str, int]] | None = None
    for _ in range(PASSES):
        seconds.clear()
        calls.clear()
        start = time.perf_counter()
        for spec in specs:
            run_op(spec)
        whole = time.perf_counter() - start
        if best is None or whole < best[0]:
            best = (whole, dict(seconds), dict(calls))
    assert best is not None
    whole, seconds, calls = best

    n_ops = len(specs)
    print(f"fastest of {PASSES} passes: {whole / n_ops * 1e3:.1f} ms per op (wrapped)")
    print(f"{'stage':36s} {'share':>7s} {'calls/op':>9s} {'us/call':>9s}")
    for label, _, _, side in STAGES:
        n = calls.get(label, 0)
        spent = seconds.get(label, 0.0)
        per_call = spent / n * 1e6 if n else 0.0
        mark = "*" if side else " "
        print(f"{label:35s}{mark} {spent / whole:7.1%} {n / n_ops:9.1f} {per_call:9.1f}")
    side = seconds.get(SIDE, 0.0)
    print(f"{SIDE:36s} {side / whole:7.1%} {side / n_ops * 1e3:9.1f} ms per op")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
