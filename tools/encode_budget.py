#!/usr/bin/env python
"""Where an encode spends its time, read from outside.

``PYTHONPATH=src python tools/encode_budget.py`` runs ``perfbench``'s
``transcode_ladder`` workload — its own set-up and its own ops, imported,
not restated here (two clips, a mezzanine each, re-encoded down the preset
ladder: eight transcodes per pass) — and prints, per stage, its share of the
whole op, its calls per op and its microseconds per call.

The stages are the decoder's two per-frame stages (parse, with the token
reader's window fills inside it, and reconstruct), the
:class:`~repro.codec.encoder.Encoder` stage methods and the ``mbdecision`` /
``motion`` / ``intra`` entry points they call. Each is
wrapped here, from outside, with a ``perf_counter`` pair; nothing under
``src/`` carries a span, counter or switch for it. Times are *inclusive* (an
indented row is part of the row above it), in host seconds, and include about
0.3 us of wrapper per call, so compare two runs of this tool with each other
and read absolute time off ``perfbench``.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))  # `perfbench`

from perfbench.workloads.transcode_ladder import Workload  # noqa: E402
from repro.codec import decoder, encoder, entropy, mbdecision  # noqa: E402

# ``repro.ffmpeg`` re-exports the function under the module's name.
transcode_mod = importlib.import_module("repro.ffmpeg.transcode")

#: Timed passes over the workload's ops. The host's speed drifts by tens of
#: percent over a minute, so the fastest pass is reported, not the mean; two
#: stage tables are comparable only at the same count, hence a constant.
PASSES = 5

#: (row label, object holding the name, attribute); indentation = nesting.
STAGES = (
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
)


def _wrap(label: str, owner, attr: str, seconds: dict, calls: dict) -> None:
    fn = getattr(owner, attr)

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds[label] += time.perf_counter() - start
            calls[label] += 1

    setattr(owner, attr, timed)


def main() -> int:
    workload = Workload()
    workload.setup(0, False, None)  # seed 0: it only shuffles the op order
    for op in workload.ops:  # warm-up pass, unwrapped
        workload.call(op)

    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for label, owner, attr in STAGES:
        _wrap(label, owner, attr, seconds, calls)
    best: tuple[float, dict[str, float], dict[str, int]] | None = None
    for _ in range(PASSES):
        seconds.clear()
        calls.clear()
        start = time.perf_counter()
        for op in workload.ops:
            workload.call(op)
        whole = time.perf_counter() - start
        if best is None or whole < best[0]:
            best = (whole, dict(seconds), dict(calls))
    assert best is not None
    whole, seconds, calls = best

    n_ops = len(workload.ops)
    print(f"fastest of {PASSES} passes: {whole / n_ops * 1e3:.1f} ms per op (wrapped)")
    print(f"{'stage':28s} {'share':>7s} {'calls/op':>9s} {'us/call':>9s}")
    for label, _, _ in STAGES:
        n = calls.get(label, 0)
        spent = seconds.get(label, 0.0)
        per_call = spent / n * 1e6 if n else 0.0
        print(f"{label:28s} {spent / whole:7.1%} {n / n_ops:9.1f} {per_call:9.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
