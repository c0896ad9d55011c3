"""Bench artifacts: BENCH_<rev>.json writing, rendering, and comparison.

The comparison contract is ratio-based so a checked-in baseline produced
on one machine gates CI runs on another: absolute nanoseconds move with
the host, but the vectorized-over-reference *speedup* of the same
workload is a property of the code. A regression is any tracked speedup
falling more than :data:`ENCODE_THRESHOLD` (the fig3 encode slice) or
:data:`KERNEL_THRESHOLD` (each kernel) below the baseline's.
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
from repro.obs import MetricsRegistry
from repro.obs.export import git_dirty, git_revision

__all__ = [
    "BENCH_SCHEMA",
    "bench_artifact_path",
    "build_payload",
    "compare_bench",
    "load_bench",
    "render_bench",
    "tracked_speedups",
    "write_bench",
]

BENCH_SCHEMA = "repro-bench/v2"
#: Kernel micro timings are noisier than the encode slice, but their real
#: failure mode — a vectorized path silently falling back to scalar —
#: collapses the ratio far past any noise, so their gate is twice as loose.
ENCODE_THRESHOLD = 0.25
KERNEL_THRESHOLD = 0.50


def build_payload(
    kernel_results: dict[str, dict[str, object]],
    encode: dict[str, object],
    registry: MetricsRegistry,
    *,
    quick: bool = False,
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
        "quick": quick,
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


def tracked_speedups(payload: dict[str, object]) -> dict[str, float]:
    """Workload -> vectorized-over-reference speedup map the gates
    compare (rows ``kernel:<name>`` and ``encode:fig3-slice``)."""
    kernels: Any = payload["kernels"]
    rows = {f"kernel:{name}": row for name, row in kernels.items()}
    rows["encode:fig3-slice"] = payload["encode"]
    return {
        name: float(row["speedups"]["vectorized"]) for name, row in rows.items()
    }


def load_bench(path: str | Path) -> dict[str, object]:
    """Read a bench artifact; raises ValueError unless it is a well-formed
    :data:`BENCH_SCHEMA` one (a ``repro-bench/v1`` file must be
    re-measured: its rows are not comparable by name) whose every tracked
    speedup is a finite positive ratio (anything else passes or crashes
    the gate)."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: not a {BENCH_SCHEMA} artifact (schema={schema!r})"
        )
    try:
        speedups = tracked_speedups(payload)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"{path}: malformed {BENCH_SCHEMA} artifact: {exc!r}"
        ) from None
    for name, speedup in speedups.items():
        if not 0 < speedup < math.inf:
            raise ValueError(
                f"{path}: malformed {BENCH_SCHEMA} artifact: {name} speedup "
                f"is {speedup!r}, not a finite positive ratio"
            )
    return payload


def render_bench(payload: dict[str, object]) -> str:
    """Human-readable summary of one bench artifact."""
    kernels: Any = payload["kernels"]
    encode: Any = payload["encode"]
    host: Any = payload["host"]
    backends = list(encode["backends"])
    lines = [
        f"bench {payload['rev']}"
        + ("+dirty" if payload.get("dirty") else "")
        + (" (quick)" if payload.get("quick") else "")
        + f" — python {host['python']}, numpy {host['numpy']}",
        "",
        f"{'kernel (ns/block; x vs reference)':34s} "
        + " ".join(f"{backend:>20s}" for backend in backends),
    ]
    for name in sorted(kernels):
        row = kernels[name]
        cells = []
        for backend in backends:
            cell = f"{row['backends'][backend]:.0f}"
            if backend in row["speedups"]:
                cell += f" ({row['speedups'][backend]:.2f}x)"
            cells.append(f"{cell:>20s}")
        lines.append(f"{name:34s} " + " ".join(cells))
    n_encoded = encode["n_frames"] * len(encode["cells"])
    lines += [
        "",
        f"fig3 encode slice ({len(encode['cells'])} cells x "
        f"{encode['n_frames']} frames @ {encode['width']}x{encode['height']}):",
    ]
    name_w = max(len(b) for b in backends)
    for backend in backends:
        total = encode["backends"][backend]
        ratio = encode["speedups"].get(backend, 1.0)
        lines.append(
            f"  {backend:<{name_w}s} {total:6.2f}s "
            f"({n_encoded / total:.1f} frames/s, {ratio:.2f}x vs reference)"
        )
    return "\n".join(lines)


def compare_bench(
    current: dict[str, object], baseline: dict[str, object]
) -> tuple[str, list[str]]:
    """Compare two artifacts by speedup ratio.

    Returns ``(report, regressions)`` where ``regressions`` names every
    tracked workload whose current speedup dropped too far below the
    baseline's: :data:`ENCODE_THRESHOLD` for the fig3 encode slice,
    :data:`KERNEL_THRESHOLD` for individual kernels. Workloads present on
    only one side are reported but never counted as regressions (the set
    may grow over time).
    """
    cur = tracked_speedups(current)
    base = tracked_speedups(baseline)
    lines = [
        f"comparing {current.get('rev')} against baseline {baseline.get('rev')} "
        f"(threshold: -{ENCODE_THRESHOLD:.0%} encode, "
        f"-{KERNEL_THRESHOLD:.0%} kernels)",
        "",
        f"{'workload':40s} {'baseline':>9s} {'current':>9s} {'delta':>8s}",
    ]
    regressions: list[str] = []
    for name in sorted(set(cur) | set(base)):
        if name not in cur:
            lines.append(f"{name:40s} {base[name]:8.2f}x {'—':>9s}  (removed)")
            continue
        if name not in base:
            lines.append(f"{name:40s} {'—':>9s} {cur[name]:8.2f}x  (new)")
            continue
        delta = cur[name] / base[name] - 1.0
        limit = ENCODE_THRESHOLD if name.startswith("encode:") else KERNEL_THRESHOLD
        flag = ""
        if cur[name] < base[name] * (1.0 - limit):
            flag = "  REGRESSION"
            regressions.append(name)
        lines.append(
            f"{name:40s} {base[name]:8.2f}x {cur[name]:8.2f}x {delta:+7.1%}{flag}"
        )
    lines.append("")
    if regressions:
        lines.append(
            f"{len(regressions)} regression(s): " + ", ".join(regressions)
        )
    else:
        lines.append("no regressions")
    return "\n".join(lines), regressions
