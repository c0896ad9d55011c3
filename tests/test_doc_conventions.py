"""Documentation conventions for the codec and bench packages.

Every module must carry a module docstring and an explicit ``__all__``,
and every ``__all__`` entry must resolve to a real attribute — the
public surface documented in docs/ARCHITECTURE.md is generated from
these, so a drifting ``__all__`` is a docs bug, not just style. A
package ``__init__`` that re-exports nothing declares an empty one.

The layering contract checks that resolving the configuration loads
neither the service and load-test stack nor scipy.

The docs-drift audit at the bottom holds docs/CONFIGURATION.md to the
same standard, row by row against ``repro.api.settings.FIELD_TABLE``:
the doc's table line for a ``Settings`` field must carry that field's
environment variable and CLI flag spelling, so a knob that is added,
renamed or re-flagged in the table but not in the doc fails the suite.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

AUDITED_PACKAGES = [
    "repro.codec",
    "repro.bench",
    "repro.api",
    "repro.service",
    "repro.loadgen",
]


def _modules():
    names = []
    for pkg_name in AUDITED_PACKAGES:
        pkg = importlib.import_module(pkg_name)
        names.append(pkg_name)
        for info in pkgutil.iter_modules(pkg.__path__):
            names.append(f"{pkg_name}.{info.name}")
    return sorted(names)


@pytest.mark.parametrize("name", _modules())
def test_module_has_docstring(name):
    mod = importlib.import_module(name)
    doc = (mod.__doc__ or "").strip()
    assert doc, f"{name} is missing a module docstring"
    assert len(doc) >= 40, f"{name} docstring is too thin to be useful: {doc!r}"


@pytest.mark.parametrize("name", _modules())
def test_module_declares_all(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", None)
    assert exported is not None, f"{name} does not declare __all__"
    if not exported:
        # Only a package may export nothing, and then it must define
        # nothing public besides its submodules.
        assert hasattr(mod, "__path__"), f"{name} declares an empty __all__"
        public = [
            entry for entry, value in vars(mod).items()
            if not entry.startswith("_")
            and not isinstance(value, types.ModuleType)
        ]
        assert not public, f"{name} exports nothing but defines {public}"
    assert len(exported) == len(set(exported)), f"{name} has duplicate __all__ entries"


@pytest.mark.parametrize("name", _modules())
def test_all_entries_resolve(name):
    mod = importlib.import_module(name)
    missing = [entry for entry in mod.__all__ if not hasattr(mod, entry)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("name", _modules())
def test_public_callables_documented(name):
    """Everything in __all__ that is callable or a class has a docstring."""
    mod = importlib.import_module(name)
    undocumented = []
    for entry in mod.__all__:
        obj = getattr(mod, entry)
        if callable(obj) and not (obj.__doc__ or "").strip():
            undocumented.append(entry)
    assert not undocumented, f"{name}: undocumented public API: {undocumented}"


# ----------------------------------------------------------------------
# Docs-drift audit: docs/CONFIGURATION.md is the knob contract
# ----------------------------------------------------------------------

_REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def configuration_doc() -> str:
    path = _REPO_ROOT / "docs" / "CONFIGURATION.md"
    assert path.exists(), "docs/CONFIGURATION.md is the knob contract and must exist"
    return path.read_text(encoding="utf-8")


def test_every_settings_field_documented(configuration_doc):
    """Each field-table row has exactly one doc-table line, and that
    line carries the row's env var and flag spelling."""
    from repro.api.settings import FIELD_TABLE

    problems = []
    for field, knob in FIELD_TABLE.items():
        rows = [
            line for line in configuration_doc.splitlines()
            if line.startswith(f"| `{field}` |")
        ]
        if len(rows) != 1:
            problems.append(f"{field}: {len(rows)} doc rows, expected 1")
            continue
        for spelling in (knob.env, knob.flag):
            if spelling and f"`{spelling}" not in rows[0]:
                problems.append(f"{field}: row lacks `{spelling}`")
    assert not problems, (
        "docs/CONFIGURATION.md knob tables drifted from FIELD_TABLE: "
        + "; ".join(problems)
    )


def test_every_env_var_documented(configuration_doc):
    """Every ENV_VARS entry (and the retry family) must be in the doc."""
    from repro.api import ENV_VARS

    expected = set(ENV_VARS) | {
        "REPRO_RETRY_ATTEMPTS", "REPRO_RETRY_BASE_DELAY",
        "REPRO_RETRY_GROWTH", "REPRO_RETRY_MAX_DELAY",
        "REPRO_RETRY_JITTER", "REPRO_RETRY_SEED",
        # pytest-benchmark sizing lives outside Settings but is still a
        # documented knob.
        "REPRO_BENCH_SCALE",
    }
    missing = sorted(v for v in expected if v not in configuration_doc)
    assert not missing, (
        f"env vars missing from docs/CONFIGURATION.md: {missing}"
    )


def test_benchmarks_doc_names_both_live_schemas():
    """docs/BENCHMARKS.md documents the one format `repro bench` writes
    (the trend schema left with the drift gate)."""
    from repro.bench import BENCH_SCHEMA

    doc = (_REPO_ROOT / "docs" / "BENCHMARKS.md").read_text(encoding="utf-8")
    assert BENCH_SCHEMA in doc


def _src_files_mentioning(*needles: str) -> list[str]:
    return [
        str(path.relative_to(_REPO_ROOT))
        for path in sorted((_REPO_ROOT / "src").rglob("*.py"))
        if any(needle in path.read_text(encoding="utf-8") for needle in needles)
    ]


def test_no_shared_memory_transport_in_src():
    """Workers get clips by fork inheritance of the one clip memo
    (docs/PERFORMANCE.md has the measurement that removed the
    shared-memory transport); nothing under src/ may bring it back."""
    offenders = _src_files_mentioning("shared_memory")
    assert not offenders, f"multiprocessing.shared_memory used in: {offenders}"


def test_trace_content_has_one_home():
    """What a traced encode reports — the simulated heap, the address
    templates, the branch outcomes, the Graphite loop transforms — is
    `codec/tracemodel.py` (docs/ARCHITECTURE.md, "where to change trace
    content"); the encoder only says what it did, the decoder reports its
    own few kernels."""
    codec = _REPO_ROOT / "src" / "repro" / "codec"

    def mentioning(*needles: str) -> set[str]:
        return {
            path.name
            for path in codec.rglob("*.py")
            if any(needle in path.read_text(encoding="utf-8") for needle in needles)
        }

    assert mentioning("tracer.append(") == {"tracemodel.py"}  # a frame at a time
    assert mentioning("tracer.kernel(") == {"decoder.py"}
    assert mentioning(
        "AddressMap", ".alloc(",
        "tile_transform", "fuse_deblock", "interchange_interp",
    ) == {"tracemodel.py"}


def test_no_sweep_checkpoint_in_src():
    """A finished sweep cell has one durable store, the result cache
    (docs/PERFORMANCE.md has the measurement that removed the checkpoint
    manifest); nothing under src/ may bring the second copy back."""
    offenders = _src_files_mentioning(
        "SweepCheckpoint", "checkpoint_dir", "REPRO_CHECKPOINT_DIR"
    )
    assert not offenders, f"sweep checkpoint manifest referenced in: {offenders}"


def test_no_benchmark_matrix_in_src():
    """`repro bench` is the calibrated-cost gate and nothing else, and no
    environment variable selects what it runs (docs/PERFORMANCE.md has
    the reproductions that removed the matrix compiler and the drift
    gate); nothing under src/ may bring either back."""
    offenders = _src_files_mentioning(
        "MatrixSpec", "bench_matrix", "REPRO_BENCH_MATRIX",
        "REPRO_BENCH_HISTORY", "render_matrix",
        "load_history", "TREND_SCHEMA", "detect_drift", "repro-bench-trend",
    )
    assert not offenders, (
        f"benchmark matrix or drift gate referenced in: {offenders}"
    )


def test_no_kernel_switch_in_src():
    """The codec has one body; the scalar bodies are oracles under tests/
    (docs/ARCHITECTURE.md, "One codec body"). Nothing under src/ may bring
    the switch between them back, under any of its old names."""
    offenders = _src_files_mentioning(
        "is_vectorized", "backend_scope", "select_backend", "REPRO_KERNELS",
        "KERNEL_BACKENDS",
    )
    assert not offenders, f"kernel backend switch referenced in: {offenders}"


def _src_lines_mentioning(needle: str) -> dict[str, list[str]]:
    """``src/repro``-relative path -> the stripped lines containing ``needle``."""
    root = _REPO_ROOT / "src" / "repro"
    hits = {}
    for path in sorted(root.rglob("*.py")):
        lines = [
            line.strip()
            for line in path.read_text(encoding="utf-8").splitlines()
            if needle in line
        ]
        if lines:
            hits[str(path.relative_to(root))] = lines
    return hits


def test_environment_is_read_in_one_place():
    """`Settings.env_overrides()` is the only resolver (docs/CONFIGURATION.md,
    "Precedence"): no subsystem keeps an env fallback of its own, so the
    string `environ` — prose included — lives in `api/settings.py`, in the
    `REPRO_RETRY_*` helper `RetryPolicy.from_env` reads through, and on the
    one `XDG_CACHE_HOME` line `repro cache` falls back to; there is no
    "unset: look elsewhere" sentinel; and only the front doors resolve."""
    environ = _src_lines_mentioning("environ")
    assert set(environ) == {
        "api/settings.py", "resilience/retry.py", "experiments/cache.py",
    }, environ
    assert environ["resilience/retry.py"] == [
        'raw = os.environ.get(_ENV_PREFIX + name, "").strip()'
    ]
    assert environ["experiments/cache.py"] == [
        'xdg = os.environ.get("XDG_CACHE_HOME")'
    ]
    assert not _src_lines_mentioning("_UNSET")
    assert set(_src_lines_mentioning(".from_env(")) <= {
        "api/settings.py", "cli.py",
    }


def test_session_runs_under_the_environments_settings():
    """tests/conftest.py installs `Settings.from_env()` at start-up and
    after every test; if that ever goes, CI's `REPRO_JOBS=2` leg would run
    the whole suite serial without a single failure — except this one."""
    from repro.api.settings import Settings
    from repro.experiments import parallel

    assert parallel.default_jobs() == Settings.from_env().jobs


_LAYERING_PROBE = """
import sys
import repro.cli, repro.api.facade
from repro.api.settings import Settings
Settings.from_env()
print("\\n".join(sorted(sys.modules)))
"""


def test_resolving_settings_loads_no_service_stack():
    """`import repro.cli, repro.api.facade` plus `Settings.from_env()`
    in a fresh interpreter loads no scipy, no assignment solver, and no
    module of `repro.service` or `repro.loadgen`: a command imports the
    stack it runs and validates only the fields it reads
    (docs/CONFIGURATION.md, "Validation")."""
    out = subprocess.run(
        [sys.executable, "-c", _LAYERING_PROBE],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(_REPO_ROOT / "src")},
    ).stdout.split()
    assert "repro.api.settings" in out
    loaded = [
        name for name in out
        if name.split(".")[0] == "scipy"
        or name == "repro.scheduling.affinity"
        or name.startswith(("repro.service", "repro.loadgen"))
    ]
    assert not loaded, f"resolving Settings loaded {loaded}"
