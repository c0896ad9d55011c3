"""The suite: ``PYTHONPATH=src python -m perfbench [--seed S] [--workload NAME] [--trace] [--out FILE]``.

Runs every workload ``--rounds`` times, each run in fresh hermetic children
(:func:`perfbench.run.run_workload`), interleaved - ``transcode_ladder,
profile_grid, fleet_replay, sweep_warm``, repeat - so a slow minute on the
host lands on every workload and not on one. Prints every metric by name
with its unit, the median and quartiles over the rounds, the sample count
and the determinism digest; ``--trace`` adds one traced run per workload for
the per-layer rows and the span files. ``--out`` writes the document
``python -m perfbench.compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import sys

from perfbench.common import WORKLOAD_NAMES, load_contract, quartiles
from perfbench.run import run_workload, span_file


def run_suite(
    workloads: list[str], *, seed: int, rounds: int, seconds: float,
    vary_seed: bool, trace: bool, smoke: bool,
) -> dict:
    doc: dict = {
        "seed": seed, "rounds": rounds, "seconds": seconds,
        "vary_seed": vary_seed, "smoke": smoke, "env": None,
        "workloads": {
            w: {"digests": [], "attempted": 0, "failed": 0, "samples": [],
                "end_to_end": {}, "per_layer": {}}
            for w in workloads
        },
    }
    for r in range(rounds):
        for w in workloads:
            run_seed = seed + r if vary_seed else seed
            print(f"[round {r + 1}/{rounds}] {w} seed={run_seed}",
                  file=sys.stderr, flush=True)
            result = run_workload(w, run_seed, seconds, False, smoke)
            _absorb(doc, w, result, "end_to_end")
    if trace:
        for w in workloads:
            print(f"[traced] {w} seed={seed}", file=sys.stderr, flush=True)
            result = run_workload(w, seed, seconds, True, smoke)
            _absorb(doc, w, result, "per_layer")
            doc["workloads"][w]["spans"] = str(span_file(w, seed))
    return doc


def _absorb(doc: dict, workload: str, result: dict, kind: str) -> None:
    entry = doc["workloads"][workload]
    doc["env"] = {k: v for k, v in result["env"].items() if k != "seed"}
    entry["digests"].append(result["digest"])
    entry["attempted"] += result["attempted"]
    entry["failed"] += result["failed"]
    if kind == "end_to_end":
        entry["samples"].append(result["samples"])
    for name, m in result["metrics"].items():
        slot = entry[kind].setdefault(name, {"unit": m["unit"], "values": []})
        slot["values"].append(m["value"])
    for error in result["errors"]:
        print(error, file=sys.stderr)


def render(doc: dict) -> str:
    lines = ["env: " + " ".join(f"{k}={v}" for k, v in sorted(doc["env"].items()))
             + f" seed={doc['seed']}"
             + (" SMOKE (numbers not comparable)" if doc["smoke"] else "")]
    for name, entry in doc["workloads"].items():
        digests = sorted(set(entry["digests"]))
        lines.append("")
        lines.append(
            f"{name}: {entry['attempted']} ops attempted, {entry['failed']} failed "
            f"(failed_frac {entry['failed'] / max(entry['attempted'], 1):.4g}); "
            f"latency samples per run {entry['samples']}"
        )
        lines.append("  digest: " + (digests[0] if len(digests) == 1 and not doc["vary_seed"]
                                     else f"{len(digests)} distinct over the runs"))
        lines.append(f"  {'end-to-end metric':34s} {'median':>12s} {'q1':>12s} "
                     f"{'q3':>12s} {'spread':>7s}  unit (n)")
        for metric, slot in entry["end_to_end"].items():
            q1, med, q3 = quartiles(slot["values"])
            lines.append(
                f"  {metric:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                f"{(q3 - q1) / med:7.3f}  {slot['unit']} ({len(slot['values'])})"
            )
        if entry["per_layer"]:
            lines.append(f"  {'per-layer metric (traced run)':34s} {'value':>12s}  unit")
            for metric, slot in entry["per_layer"].items():
                lines.append(f"  {metric:34s} {slot['values'][0]:12.6g}  {slot['unit']}")
            lines.append(f"  spans: {entry['spans']}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(prog="python -m perfbench",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, action="append",
                        help="run only this workload (repeatable); default all four")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--vary-seed", action="store_true",
                        help="round r runs seed+r, as the acceptance check does")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true",
                        help="1 round, reduced op lists, 1 s windows: schema check only")
    parser.add_argument("--out", help="write the results document here")
    args = parser.parse_args(argv)
    if args.smoke:
        args.rounds, args.seconds = 1, 1.0

    doc = run_suite(
        args.workload or list(WORKLOAD_NAMES), seed=args.seed, rounds=args.rounds,
        seconds=args.seconds, vary_seed=args.vary_seed, trace=args.trace,
        smoke=args.smoke,
    )
    print(render(doc))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1)
    return 1 if any(e["failed"] for e in doc["workloads"].values()) else 0


if __name__ == "__main__":
    raise SystemExit(main())
