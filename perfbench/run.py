"""One benchmark run: ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``.

This is the command ``/BENCHMARK.json`` names. It launches the workload in
hermetic child processes (:mod:`perfbench.child`), prints every metric by
name with its unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}`` - the ``end_to_end``
metrics with ``--trace 0``, the ``per_layer`` metrics with ``--trace 1``.

``setup_s`` is child process start -> first timed call (interpreter start,
imports, clip synthesis, mezzanines / profile-once / warm-dir fill). Set-up
runs in ``SETUPS`` separate children and the median is reported; the last of
them goes on to measure.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

if __package__ in (None, ""):  # run as a script: make `perfbench` importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (  # noqa: E402
    OUT,
    ROOT,
    WORKLOAD_NAMES,
    hermetic_env,
    load_contract,
    require_program,
)

SETUPS = 3
CHILD_TIMEOUT_S = 170


def git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def _child(args: list[str], tmp: Path) -> dict:
    tmp.mkdir(parents=True)
    cmd = [sys.executable, "-m", "perfbench.child", *args, "--tmp", str(tmp),
           "--t0", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=hermetic_env(tmp), stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def span_file(workload: str, seed: int) -> Path:
    return OUT / f"spans-{workload}-seed{seed}.json"


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False
) -> dict:
    """Run one workload once; returns the child's result with units attached."""
    require_program()
    contract = load_contract()
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT / "tmp"))
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace)), "--spans", str(span_file(workload, seed))]
    if smoke:
        args.append("--smoke")
    try:
        setups = [
            _child([*args, "--setup-only"], tmp / f"setup{i}")["setup_s"]
            for i in range(0 if trace or smoke else SETUPS - 1)
        ]
        result = _child(args, tmp / "run")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if not trace:
        setups.append(result["metrics"]["setup_s"])
        result["setup_samples"] = setups
        result["metrics"]["setup_s"] = statistics.median(setups)
    units = {
        m["name"]: m["unit"]
        for m in contract["per_layer" if trace else "end_to_end"]
    }
    if set(units) != set(result["metrics"]):
        raise SystemExit(
            "perfbench: metrics do not match BENCHMARK.json: "
            f"{sorted(set(units) ^ set(result['metrics']))}"
        )
    result["metrics"] = {
        name: {"value": result["metrics"][name], "unit": unit}
        for name, unit in units.items()
    }
    result["env"]["git"] = git_rev()
    return result


def render(result: dict) -> str:
    env = result["env"]
    lines = [
        f"perfbench {result['workload']} trace={result['trace']}"
        + (" SMOKE (numbers not comparable)" if result["smoke"] else ""),
        "  env: " + " ".join(f"{k}={v}" for k, v in sorted(env.items())),
        f"  digest: {result['digest']}",
        f"  window: {result['window_raw_s']:.3f} wall s at host speed "
        f"{result['host_speed']:.3f} (1 = reference host), {result['passes']} passes, "
        f"{result['samples']} latency samples, "
        f"{result['attempted']} ops attempted, {result['failed']} failed",
    ]
    if "setup_samples" in result:
        lines.append(f"  setup_s samples: {len(result['setup_samples'])}")
    for name, m in result["metrics"].items():
        lines.append(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    if result["trace"]:
        lines.append(f"  spans: {span_file(result['workload'], env['seed'])}")
    for error in result["errors"]:
        lines.append(error)
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    require_program()
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced op lists, one set-up; schema check only")
    args = parser.parse_args(argv)

    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    print(render(result))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
