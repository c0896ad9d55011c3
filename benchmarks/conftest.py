"""Benchmark fixtures.

Each benchmark regenerates one of the paper's tables or figures and
prints the same rows/series the paper reports (run pytest with ``-s`` to
see them). ``REPRO_BENCH_SCALE`` selects the proxy sizing: ``quick``
(default, tens of seconds per figure), ``medium``, or ``full`` (the
paper's 816-combination grids — hours).

The sweep-driven figures (3, 4, 5) share one memoized sweep per session,
so their combined cost is one sweep plus rendering. The whole harness
routes through the sweep engine's cache-then-compute path, under the
environment's ``Settings`` (installed once, in ``pytest_configure``):
set ``REPRO_JOBS=N`` to shard sweeps across N worker processes and
``REPRO_CACHE_DIR=DIR`` to persist results on disk, which makes repeat
benchmark runs (e.g. before/after an encoder change at ``full`` scale)
near-free for unchanged code.
"""

from __future__ import annotations

import os

import pytest

from repro.api.settings import Settings
from repro.experiments import parallel
from repro.experiments.runner import SCALES


def pytest_configure(config):
    config.addinivalue_line("markers", "paperfig: regenerates a paper figure/table")
    # Nothing below repro.api reads the environment: opt in, once.
    Settings.from_env().apply()


def pytest_terminal_summary(terminalreporter):
    """Report persistent-cache usage so warm/cold runs are explainable."""
    cache = parallel.default_cache()
    if cache is None:
        return
    stats = cache.stats()
    terminalreporter.write_line(
        f"repro sweep cache: {stats.entries} entries "
        f"({stats.total_bytes / 1024.0:.1f} KiB) at {stats.root} "
        f"[jobs={parallel.default_jobs()}]"
    )


@pytest.fixture(scope="session")
def scale():
    name = os.environ.get("REPRO_BENCH_SCALE", "quick")
    if name not in SCALES:
        raise ValueError(
            f"REPRO_BENCH_SCALE must be one of {sorted(SCALES)}, got {name!r}"
        )
    return SCALES[name]


@pytest.fixture()
def show(capsys):
    """Print through pytest's capture so figures are always visible."""

    def _show(text: str) -> None:
        with capsys.disabled():
            print()
            print(text)

    return _show
