"""``python -m perfbench.compare A.json B.json``: judge suite output B against A.

One row per (workload, end-to-end metric) with both medians, both quartile
pairs and the bound from ``/BENCHMARK.json``. Verdicts follow the
choosing-metrics rules:

``worse``       B's median is worse than A's by more than the bound.
``better``      B wins at least nine tenths of the round-by-round pairs (ties
                count for neither) and the medians differ by more than the
                distance between A's own quartiles.
``unresolved``  the run-to-run spread of either side is wider than the bound,
                unless every run of B reads better than every run of A; also
                any row with fewer than three runs a side (no spread to judge).
``same``        anything else.

Exact-count rows and digests are compared for equality and listed apart: a
difference there means outputs or simulated statistics changed - information,
not failure, so model fixes stay possible. Exit status is non-zero on any
``worse`` or any rise in ``failed_frac``. Comparing two runs of one commit is
the A/A check: every row must read ``same``, ``better`` or ``unresolved``
with identical digests and counts.
"""

from __future__ import annotations

import argparse
import json

from perfbench.common import load_contract, quartiles

EXACT_UNITS = ("count", "bytes")


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """(verdict, B's median change as a share of A's median, positive = worse)."""
    sign = 1.0 if better == "lower" else -1.0
    if min(len(a), len(b)) < 3:
        return "unresolved", sign * (quartiles(b)[1] - quartiles(a)[1]) / quartiles(a)[1]
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    change = sign * (b_med - a_med) / a_med
    spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
    all_better = max(sign * x for x in b) < min(sign * x for x in a)
    if spread > bound and not all_better:
        return "unresolved", change
    if change > bound:
        return "worse", change
    pairs = [(x, y) for x, y in zip(a, b) if x != y]
    wins = sum(sign * y < sign * x for x, y in pairs)
    if pairs and wins >= 0.9 * len(pairs) and abs(b_med - a_med) > a_q3 - a_q1:
        return "better", change
    return "same", change


def compare(a: dict, b: dict, contract: dict) -> tuple[list[str], bool]:
    lines = [
        f"{'workload':17s} {'metric':12s} {'A median':>11s} {'A q1..q3':>23s} "
        f"{'B median':>11s} {'B q1..q3':>23s} {'change':>8s} {'bound':>6s}  verdict"
    ]
    bad = False
    notes: list[str] = []
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            notes.append(f"{workload}: missing from B")
            continue
        for m in contract["end_to_end"]:
            va = entry_a["end_to_end"][m["name"]]["values"]
            vb = entry_b["end_to_end"][m["name"]]["values"]
            word, change = verdict(va, vb, m["better"], m["bound"])
            bad |= word == "worse"
            qa, qb = quartiles(va), quartiles(vb)
            lines.append(
                f"{workload:17s} {m['name']:12s} {qa[1]:11.5g} "
                f"{qa[0]:11.5g}..{qa[2]:<10.5g} {qb[1]:11.5g} "
                f"{qb[0]:11.5g}..{qb[2]:<10.5g} {change:+8.3f} {m['bound']:6.2f}  {word}"
            )
        frac_a = entry_a["failed"] / max(entry_a["attempted"], 1)
        frac_b = entry_b["failed"] / max(entry_b["attempted"], 1)
        if frac_b > frac_a:
            bad = True
            notes.append(f"{workload}: failed_frac rose {frac_a:.4g} -> {frac_b:.4g}")
        if set(entry_a["digests"]) != set(entry_b["digests"]):
            notes.append(f"{workload}: digest differs - outputs/simulated statistics changed")
        for m in contract["per_layer"]:
            if m["unit"] not in EXACT_UNITS:
                continue
            xa = entry_a["per_layer"].get(m["name"], {}).get("values")
            xb = entry_b["per_layer"].get(m["name"], {}).get("values")
            if xa and xb and xa != xb:
                notes.append(f"{workload}: exact count {m['name']} {xa[0]} -> {xb[0]}")
    lines.append("")
    lines.append("exact counts, digests and failures:")
    lines.extend(f"  {n}" for n in notes or ["identical"])
    return lines, bad


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.compare",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("a", help="suite output of the parent (python -m perfbench --out)")
    parser.add_argument("b", help="suite output of the change")
    args = parser.parse_args(argv)
    with open(args.a, encoding="utf-8") as fa, open(args.b, encoding="utf-8") as fb:
        lines, bad = compare(json.load(fa), json.load(fb), load_contract())
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
