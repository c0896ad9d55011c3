"""Bench artifacts: BENCH_<rev>.json writing, rendering, and comparison.

The comparison contract is ratio-based so a checked-in baseline produced
on one machine gates CI runs on another: absolute nanoseconds move with
the host, but the vectorized-over-reference *speedup* of the same
workload is a property of the code. A regression is any tracked speedup
falling below ``baseline * (1 - threshold)``.
"""

from __future__ import annotations

import json
import platform
import subprocess
import time
from pathlib import Path

import numpy as np

from repro._util import atomic_write_text
from repro.obs import MetricsRegistry

__all__ = [
    "BENCH_SCHEMA",
    "bench_artifact_path",
    "build_payload",
    "compare_bench",
    "current_rev",
    "load_bench",
    "render_bench",
    "working_tree_dirty",
    "write_bench",
]

BENCH_SCHEMA = "repro-bench/v1"
DEFAULT_THRESHOLD = 0.25


def current_rev() -> str:
    """Short git revision of the working tree, or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def working_tree_dirty() -> bool:
    """Whether the working tree has uncommitted changes.

    A dirty tree means ``git rev-parse`` names a commit the measured code
    does not match, so artifacts produced from one must say so — the
    filename gains a ``+dirty`` suffix and the payload records the flag.
    Outside a checkout (or if git fails) the tree counts as clean, since
    there is no revision claim to mislabel.
    """
    try:
        out = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
        return bool(out.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        return False


def build_payload(
    kernel_results: dict[str, dict[str, float]],
    e2e: dict[str, object],
    registry: MetricsRegistry,
    *,
    quick: bool = False,
) -> dict[str, object]:
    """Assemble the full ``BENCH_*.json`` payload from run results.

    Besides the measurements, the payload self-describes its provenance:
    ``rev`` (short git revision), ``dirty`` (uncommitted changes were
    present), and ``timestamp`` (epoch seconds) — so history ordering
    (:mod:`repro.bench.history`) never has to trust filenames.
    """
    return {
        "schema": BENCH_SCHEMA,
        "rev": current_rev(),
        "dirty": working_tree_dirty(),
        "timestamp": time.time(),
        "quick": quick,
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "kernels": kernel_results,
        "e2e": e2e,
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


def load_bench(path: str | Path) -> dict[str, object]:
    """Read a bench artifact; raises ValueError on a schema mismatch."""
    payload = json.loads(Path(path).read_text())
    if payload.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: not a {BENCH_SCHEMA} artifact "
            f"(schema={payload.get('schema')!r})"
        )
    return payload


def render_bench(payload: dict[str, object]) -> str:
    """Human-readable summary of one bench artifact."""
    lines = [
        f"bench {payload['rev']}"
        + ("+dirty" if payload.get("dirty") else "")
        + (" (quick)" if payload.get("quick") else "")
        + f" — python {payload['host']['python']}, numpy {payload['host']['numpy']}",
        "",
        f"{'kernel':34s} {'ref ns/blk':>12s} {'vec ns/blk':>12s} {'speedup':>8s}",
    ]
    kernels: dict[str, dict[str, float]] = payload["kernels"]  # type: ignore[assignment]
    extra_backends = sorted(
        {
            backend
            for row in kernels.values()
            for backend in row.get("speedups", {})
            if backend != "vectorized"
        }
    )
    for name in sorted(kernels):
        row = kernels[name]
        lines.append(
            f"{name:34s} {row['reference_ns_per_block']:12.0f} "
            f"{row['vectorized_ns_per_block']:12.0f} {row['speedup']:7.2f}x"
        )
    if extra_backends:
        lines += [
            "",
            f"{'kernel (speedup vs reference)':34s} "
            + " ".join(f"{backend:>12s}" for backend in extra_backends),
        ]
        for name in sorted(kernels):
            speedups = kernels[name].get("speedups", {})
            cells = []
            for backend in extra_backends:
                ratio = speedups.get(backend)
                cells.append(f"{ratio:11.2f}x" if ratio is not None else f"{'—':>12s}")
            lines.append(f"{name:34s} " + " ".join(cells))
    e2e: dict[str, object] = payload["e2e"]  # type: ignore[assignment]
    lines += [
        "",
        f"e2e fig3 slice ({len(e2e['cells'])} cells x {e2e['n_frames']} frames "
        f"@ {e2e['width']}x{e2e['height']}):",
    ]
    backend_rows = e2e.get("backends")
    if backend_rows:
        name_w = max(len(b) for b in backend_rows)
        for backend, info in backend_rows.items():
            lines.append(
                f"  {backend:<{name_w}s} {info['total_s']:6.2f}s "
                f"({info['frames_per_s']:.1f} frames/s, "
                f"{info['speedup']:.2f}x vs reference)"
            )
    else:  # oldest artifacts: no per-backend map
        lines += [
            f"  reference  {e2e['reference_s']:.2f}s "
            f"({e2e['reference_frames_per_s']:.1f} frames/s)",
            f"  vectorized {e2e['vectorized_s']:.2f}s "
            f"({e2e['vectorized_frames_per_s']:.1f} frames/s)",
            f"  speedup    {e2e['speedup']:.2f}x",
        ]
    return "\n".join(lines)


def _tracked_speedups(payload: dict[str, object]) -> dict[str, float]:
    """Workload -> speedup-over-reference map the gate compares.

    The unsuffixed rows (``kernel:<name>``, ``e2e:fig3-slice``) are the
    vectorized-over-reference ratios; an available ``numba`` backend
    contributes suffixed rows (``kernel:<name>:numba``,
    ``e2e:fig3-slice:numba``) that show up as ``(new)`` against a
    baseline recorded without it. Suffixed rows a baseline carries for a
    backend that no longer exists show up as ``(removed)``.
    """
    tracked: dict[str, float] = {}
    for name, row in payload["kernels"].items():  # type: ignore[union-attr]
        tracked[f"kernel:{name}"] = row["speedup"]
        for backend, ratio in row.get("speedups", {}).items():
            if backend != "vectorized":
                tracked[f"kernel:{name}:{backend}"] = ratio
    e2e = payload["e2e"]
    tracked["e2e:fig3-slice"] = e2e["speedup"]  # type: ignore[index]
    for backend, info in e2e.get("backends", {}).items():  # type: ignore[union-attr]
        if backend not in ("reference", "vectorized"):
            tracked[f"e2e:fig3-slice:{backend}"] = info["speedup"]
    return tracked


def compare_bench(
    current: dict[str, object],
    baseline: dict[str, object],
    *,
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple[str, list[str]]:
    """Compare two artifacts by speedup ratio.

    Returns ``(report, regressions)`` where ``regressions`` names every
    tracked workload whose current speedup dropped too far below the
    baseline's: ``threshold`` for the end-to-end slice, and twice that
    (capped at 50%) for individual kernels, whose micro timings are
    noisier but whose real failure mode — a vectorized path silently
    falling back to scalar — collapses the ratio far past any noise.
    Workloads present on only one side are reported but never counted as
    regressions (the set may grow over time).
    """
    cur = _tracked_speedups(current)
    base = _tracked_speedups(baseline)
    kernel_threshold = min(2 * threshold, 0.5)
    lines = [
        f"comparing {current.get('rev')} against baseline {baseline.get('rev')} "
        f"(threshold: -{threshold:.0%} e2e, -{kernel_threshold:.0%} kernels)",
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
        limit = threshold if name.startswith("e2e:") else kernel_threshold
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
