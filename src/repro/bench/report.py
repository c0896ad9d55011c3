"""Bench artifacts: BENCH_<rev>.json writing, rendering, and comparison.

The comparison contract is calibrated so a checked-in baseline produced
on one machine gates CI runs on another: absolute nanoseconds move with
the host, but a workload's *cost* — its time over the calibration
kernel's time beside it — moves only with the code. A regression is any
tracked cost rising more than :data:`ENCODE_THRESHOLD` (the fig3 encode
slice) or :data:`KERNEL_THRESHOLD` (each kernel) above the baseline's.
"""

from __future__ import annotations

import json
import math
import platform
import time
from pathlib import Path
from typing import Any

import numpy as np

from repro._util import atomic_write_text
from repro.obs.metrics import MetricsRegistry
from repro.obs.export import git_dirty, git_revision

__all__ = [
    "BENCH_SCHEMA",
    "bench_artifact_path",
    "build_payload",
    "compare_bench",
    "load_bench",
    "render_bench",
    "tracked_costs",
    "write_bench",
]

BENCH_SCHEMA = "repro-bench/v3"
#: Kernel micro timings are noisier than the encode slice, so their gate
#: is twice as loose.
ENCODE_THRESHOLD = 0.25
KERNEL_THRESHOLD = 0.50


def build_payload(
    kernel_results: dict[str, dict[str, float]],
    encode: dict[str, object],
    registry: MetricsRegistry,
) -> dict[str, object]:
    """Assemble the full ``BENCH_*.json`` payload from run results.

    Besides the measurements, the payload self-describes its provenance:
    ``rev`` (short git revision of the measured code), ``dirty`` (that
    checkout had uncommitted changes, so ``rev`` names a commit the
    measured code does not match), and ``timestamp`` (epoch seconds).
    """
    return {
        "schema": BENCH_SCHEMA,
        "rev": git_revision(),
        "dirty": git_dirty(),
        "timestamp": time.time(),
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "kernels": kernel_results,
        "encode": encode,
        "metrics": registry.as_dict(),
    }


def bench_artifact_path(
    payload: dict[str, object], out_dir: str | Path = "."
) -> Path:
    """Conventional artifact filename for a payload: ``BENCH_<rev>.json``,
    with a ``+dirty`` suffix when the payload was measured on a working
    tree that did not match its recorded revision."""
    rev = payload.get("rev", "unknown")
    if payload.get("dirty"):
        rev = f"{rev}+dirty"
    return Path(out_dir) / f"BENCH_{rev}.json"


def write_bench(payload: dict[str, object], path: str | Path | None = None) -> Path:
    """Write the payload as JSON; default filename is ``BENCH_<rev>.json``."""
    target = Path(path) if path is not None else bench_artifact_path(payload)
    return atomic_write_text(
        target, json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


def tracked_costs(payload: dict[str, object]) -> dict[str, float]:
    """Workload -> calibrated cost map the gates compare (rows
    ``kernel:<name>`` and ``encode:fig3-slice``)."""
    kernels: Any = payload["kernels"]
    rows = {f"kernel:{name}": row for name, row in kernels.items()}
    rows["encode:fig3-slice"] = payload["encode"]
    return {name: float(row["cost"]) for name, row in rows.items()}


def load_bench(path: str | Path) -> dict[str, object]:
    """Read a bench artifact; raises ValueError unless it is a well-formed
    :data:`BENCH_SCHEMA` one (an older file must be re-measured: its
    rows are speedup ratios, not costs) whose every tracked cost is a
    finite positive number (anything else passes or crashes the gate)."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: not a {BENCH_SCHEMA} artifact (schema={schema!r})"
        )
    try:
        costs = tracked_costs(payload)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"{path}: malformed {BENCH_SCHEMA} artifact: {exc!r}"
        ) from None
    for name, cost in costs.items():
        if not 0 < cost < math.inf:
            raise ValueError(
                f"{path}: malformed {BENCH_SCHEMA} artifact: {name} cost "
                f"is {cost!r}, not a finite positive number"
            )
    return payload


def render_bench(payload: dict[str, object]) -> str:
    """Human-readable summary of one bench artifact."""
    kernels: Any = payload["kernels"]
    encode: Any = payload["encode"]
    host: Any = payload["host"]
    lines = [
        f"bench {payload['rev']}"
        + ("+dirty" if payload.get("dirty") else "")
        + f" — python {host['python']}, numpy {host['numpy']}",
        "",
        f"{'kernel':34s} {'ns/block':>10s} {'cost':>8s}",
    ]
    for name in sorted(kernels):
        row = kernels[name]
        lines.append(
            f"{name:34s} {row['ns_per_block']:10.0f} {row['cost']:8.4g}"
        )
    n_encoded = encode["n_frames"] * len(encode["cells"])
    lines += [
        "",
        f"fig3 encode slice ({len(encode['cells'])} cells x "
        f"{encode['n_frames']} frames @ {encode['width']}x{encode['height']}): "
        f"{encode['seconds']:.2f}s ({n_encoded / encode['seconds']:.1f} frames/s), "
        f"cost {encode['cost']:.2f}",
        "",
        "cost = best time / the calibration kernel's best time beside it",
    ]
    return "\n".join(lines)


def compare_bench(
    current: dict[str, object], baseline: dict[str, object]
) -> tuple[str, list[str]]:
    """Compare two artifacts by calibrated cost.

    Returns ``(report, regressions)`` where ``regressions`` names every
    tracked workload whose current cost rose too far above the
    baseline's: :data:`ENCODE_THRESHOLD` for the fig3 encode slice,
    :data:`KERNEL_THRESHOLD` for individual kernels. Workloads present on
    only one side are reported but never counted as regressions (the set
    may grow over time).
    """
    cur = tracked_costs(current)
    base = tracked_costs(baseline)
    lines = [
        f"comparing {current.get('rev')} against baseline {baseline.get('rev')} "
        f"(threshold: +{ENCODE_THRESHOLD:.0%} encode, "
        f"+{KERNEL_THRESHOLD:.0%} kernels)",
        "",
        f"{'workload':40s} {'baseline':>9s} {'current':>9s} {'delta':>8s}",
    ]
    regressions: list[str] = []
    for name in sorted(set(cur) | set(base)):
        if name not in cur:
            lines.append(f"{name:40s} {base[name]:9.4g} {'—':>9s}  (removed)")
            continue
        if name not in base:
            lines.append(f"{name:40s} {'—':>9s} {cur[name]:9.4g}  (new)")
            continue
        delta = cur[name] / base[name] - 1.0
        limit = ENCODE_THRESHOLD if name.startswith("encode:") else KERNEL_THRESHOLD
        flag = ""
        if cur[name] > base[name] * (1.0 + limit):
            flag = "  REGRESSION"
            regressions.append(name)
        lines.append(
            f"{name:40s} {base[name]:9.4g} {cur[name]:9.4g} {delta:+7.1%}{flag}"
        )
    lines.append("")
    if regressions:
        lines.append(
            f"{len(regressions)} regression(s): " + ", ".join(regressions)
        )
    else:
        lines.append("no regressions")
    return "\n".join(lines), regressions
