"""Shared pieces: the contract file, order statistics, the hermetic child environment."""

from __future__ import annotations

import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes (temp caches, span files) lands here; git ignores it.
OUT = ROOT / "perfbench" / "out"

WORKLOAD_NAMES = ("transcode_ladder", "profile_grid", "fleet_replay", "sweep_warm")


def load_contract() -> dict:
    """``/BENCHMARK.json``: the one place metric names, units and bounds live."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) the way the acceptance rule takes them."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q1, statistics.median(values), q3)


def hermetic_env(tmp: Path) -> dict[str, str]:
    """The environment every measured child runs in.

    No ``REPRO_*`` variable survives, so an ambient ``REPRO_KERNELS=reference``
    or ``REPRO_CACHE_DIR`` cannot change what is measured; hashing is pinned;
    BLAS pools are single-threaded (closed loop, one client, one thread); and
    every temp file or default cache lands under ``tmp`` inside the checkout.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    ambient = env.get("PYTHONPATH")
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join(
            [str(SRC), str(ROOT)] + ([ambient] if ambient else [])
        ),
        TMPDIR=str(tmp),
        XDG_CACHE_HOME=str(tmp / "xdg"),
    )
    return env


def require_program() -> None:
    """Exit non-zero, printing no result, when the program under test is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"perfbench: {SRC / 'repro'} not found; the benchmark measures "
            "the repro package and cannot run without it\n"
        )
        raise SystemExit(2)
