"""Documentation conventions for the codec and bench packages.

Every module must carry a module docstring and an explicit ``__all__``,
and every ``__all__`` entry must resolve to a real attribute — the
public surface documented in docs/ARCHITECTURE.md is generated from
these, so a drifting ``__all__`` is a docs bug, not just style. Every
package ``__init__`` declares an empty one, outside a short allowlist:
each name has one home, the submodule that defines it.

The layering contract checks that resolving the configuration loads
neither the service and load-test stack nor scipy, that no module under
``src/repro`` imports scipy, that importing a leaf module loads only
that leaf, and that the ``repro`` imports of ``examples/`` and
``benchmarks/`` (which no tier-1 test runs) resolve.

The dead-surface gate at the bottom holds every exported name to having
a user outside ``tests/`` (docs/ARCHITECTURE.md, "Layer map").

The docs-drift audit holds docs/CONFIGURATION.md to the
same standard, row by row against ``repro.api.settings.FIELD_TABLE``:
the doc's table line for a ``Settings`` field must carry that field's
environment variable and CLI flag spelling, so a knob that is added,
renamed or re-flagged in the table but not in the doc fails the suite;
and every flag the doc's plain-flags paragraph names must be a flag of
some ``repro`` subcommand, so a removed flag cannot stay documented.
"""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
import types
from fnmatch import fnmatchcase
from pathlib import Path

import pytest

import repro

AUDITED_PACKAGES = [
    "repro.codec",
    "repro.bench",
    "repro.api",
    "repro.service",
    "repro.loadgen",
]

#: The package ``__init__``s allowed a non-empty ``__all__``, and what
#: each may export (``None``: anything). Every other package exports
#: nothing, so a name has one import path and a leaf import loads only
#: its leaf.
REEXPORTING_PACKAGES = {
    # The value the result-cache key and `repro --version` read.
    "repro": ["__version__"],
    # The facade: the documented front door (README quickstart).
    "repro.api": None,
    # Held for perfbench/workloads/profile_grid.py, which imports it from
    # here; it goes when that file is repointed at repro.obs.session.
    "repro.obs": ["telemetry_session"],
}


def _packages():
    return ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    ]


def _modules():
    names = set(_packages())
    for pkg_name in AUDITED_PACKAGES:
        pkg = importlib.import_module(pkg_name)
        for info in pkgutil.iter_modules(pkg.__path__):
            names.add(f"{pkg_name}.{info.name}")
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
    if hasattr(mod, "__path__"):
        allowed = REEXPORTING_PACKAGES.get(name, [])
        if allowed is not None:
            assert list(exported) == allowed, (
                f"package {name} re-exports {exported}; import each name "
                "from the submodule that defines it"
            )
    if name != "repro.api":
        assert "__getattr__" not in vars(mod), (
            f"{name} defines a module __getattr__; only the facade may"
        )
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


#: Every ``repro`` subcommand with its own parser ("" is the
#: experiment-running form).
_SUBCOMMANDS = ("", "bench", "cache", "serve", "loadtest", "fleet-compare",
                "slo", "submit", "report")


def _cli_flags(monkeypatch) -> set[str]:
    """Every option string of every subcommand's parser, captured at
    ``parse_args`` before anything runs."""
    import argparse

    from repro.cli import main

    class Captured(Exception):
        pass

    def capture(parser, args=None, namespace=None):
        raise Captured(parser)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    flags: set[str] = set()
    for sub in _SUBCOMMANDS:
        with pytest.raises(Captured) as exc:
            main([sub] if sub else [])
        flags.update(
            option
            for action in exc.value.args[0]._actions
            for option in action.option_strings
        )
    return flags


def test_plain_flags_paragraph_names_live_flags(configuration_doc,
                                                monkeypatch):
    """Each backticked ``--flag`` in the "Per-command flags with no
    environment variable" paragraph is accepted by some subcommand."""
    start = configuration_doc.index("Per-command flags with no environment")
    paragraph = configuration_doc[start:].split("\n\n", 1)[0]
    named = {
        flag
        for span in re.findall(r"`([^`]*)`", paragraph)
        for flag in re.findall(r"--[a-z][a-z0-9-]*", span)
    }
    assert "--compare" in named  # the paragraph was found and parsed
    stale = sorted(named - _cli_flags(monkeypatch))
    assert not stale, (
        f"docs/CONFIGURATION.md names flags no subcommand accepts: {stale}"
    )


def test_benchmarks_doc_names_both_live_schemas():
    """docs/BENCHMARKS.md documents the one format `repro bench` writes
    (the trend schema left with the drift gate)."""
    from repro.bench.report import BENCH_SCHEMA

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

    assert mentioning("tracer.append(") == {"tracemodel.py"}  # once an encode
    assert mentioning("tracer.kernel(") == {"decoder.py"}
    assert mentioning(
        "AddressMap", ".alloc(",
        "tile_transform", "fuse_deblock", "interchange_interp",
    ) == {"tracemodel.py"}


def test_a_payload_has_one_reader():
    """A run.json section another package writes (`meta.loadtest`,
    `meta.fleet_compare`, `slo`) is read back by that owner's
    `from_payload` and printed by its `render()`; `obs/export.py` owns
    only what `RUN_SCHEMA` defines and names none of the owners' keys."""
    export = (_REPO_ROOT / "src" / "repro" / "obs" / "export.py").read_text(
        encoding="utf-8")
    owners_keys = ('"legs"', '"queue_wait_p99_s"', '"fleets"',
                   '"jobs_per_dollar"', '"cost_margin_vs_control_pct"',
                   '"objectives"', '"burn_rate"')
    named = [key for key in owners_keys if key in export]
    assert not named, f"obs/export.py reads owners' payload keys {named}"


def test_no_sweep_checkpoint_in_src():
    """A finished sweep cell has one durable store, the result cache
    (docs/PERFORMANCE.md has the measurement that removed the checkpoint
    manifest); nothing under src/ may bring the second copy back."""
    offenders = _src_files_mentioning(
        "SweepCheckpoint", "checkpoint_dir", "REPRO_CHECKPOINT_DIR"
    )
    assert not offenders, f"sweep checkpoint manifest referenced in: {offenders}"


def test_no_service_checkpoint_in_src():
    """A service job is an independent, re-executable task: the spool is
    the run's input, `jobs.json` its output, and re-running the spool is
    the restart (the removed checkpoint's resume re-ran finished jobs).
    Nothing under src/ may bring the ledger snapshot back."""
    offenders = _src_files_mentioning(
        "checkpoint_path", "QUEUE_SNAPSHOT_VERSION", "_write_checkpoint",
        "_restore_checkpoint", "next_seq",
    )
    assert not offenders, f"service checkpoint referenced in: {offenders}"


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


def _modules_loaded_by(code: str) -> list[str]:
    """Every module in ``sys.modules`` after ``code`` runs in a fresh
    interpreter."""
    probe = code + '\nimport sys\nprint("\\n".join(sorted(sys.modules)))\n'
    return subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(_REPO_ROOT / "src")},
    ).stdout.split()


def test_resolving_settings_loads_no_service_stack():
    """`import repro.cli, repro.api.facade` plus `Settings.from_env()`
    in a fresh interpreter loads no scipy, no assignment solver, and no
    module of `repro.service` or `repro.loadgen`: a command imports the
    stack it runs and validates only the fields it reads
    (docs/CONFIGURATION.md, "Validation")."""
    out = _modules_loaded_by(
        "import repro.cli, repro.api.facade\n"
        "from repro.api.settings import Settings\n"
        "Settings.from_env()"
    )
    assert "repro.api.settings" in out
    loaded = [
        name for name in out
        if name.split(".")[0] == "scipy"
        or name == "repro.scheduling.affinity"
        or name.startswith(("repro.service", "repro.loadgen"))
    ]
    assert not loaded, f"resolving Settings loaded {loaded}"


def test_reporting_a_tab1_run_loads_no_service_stack(tmp_path):
    """`repro report` imports a section's owner only when the run has
    that section: reporting a tab1 run.json in a fresh interpreter loads
    no module of `repro.service` or `repro.loadgen`."""
    from repro.cli import main

    assert main(["tab1", "--telemetry", str(tmp_path)]) == 0
    out = _modules_loaded_by(
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['report', {str(tmp_path / 'run.json')!r}]) == 0"
    )
    assert "repro.obs.export" in out
    loaded = [name for name in out
              if name.startswith(("repro.service", "repro.loadgen"))]
    assert not loaded, f"repro report of a tab1 run loaded {loaded}"


def test_serving_loads_no_scipy():
    """`import repro.service.service` in a fresh interpreter loads the
    assignment solver and no scipy: the service runs on NumPy alone."""
    out = _modules_loaded_by("import repro.service.service")
    assert "repro.scheduling.affinity" in out
    loaded = [name for name in out if name.split(".")[0] == "scipy"]
    assert not loaded, f"import repro.service.service loaded {loaded}"


def test_no_src_module_imports_scipy():
    """pyproject.toml's runtime dependencies are numpy alone; scipy is
    the ``dev`` extra's test oracle for the solver in
    `repro.scheduling.affinity`. The modules are parsed, not run."""
    offenders = []
    for path in sorted((_REPO_ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                offenders.append(f"{path.relative_to(_REPO_ROOT)}:{node.lineno}")
    assert not offenders, f"scipy imported in: {offenders}"


#: Leaf import -> the module patterns it must not load.
LEAF_IMPORTS = {
    "repro": ["repro.*"],
    "repro.obs.session": ["repro.codec*", "repro.video*", "repro.resilience*"],
    "repro.codec.options": ["repro.codec.encoder", "repro.trace*", "repro.uarch*"],
}


@pytest.mark.parametrize("module", sorted(LEAF_IMPORTS))
def test_leaf_import_loads_only_its_leaf(module):
    """Importing a leaf module in a fresh interpreter loads its own
    dependencies and nothing a package ``__init__`` would re-export: no
    package but the facade re-exports (``REEXPORTING_PACKAGES``)."""
    out = _modules_loaded_by(f"import {module}")
    assert module in out
    loaded = [
        name for name in out
        if any(fnmatchcase(name, pattern) for pattern in LEAF_IMPORTS[module])
    ]
    assert not loaded, f"import {module} loaded {loaded}"


def test_example_and_benchmark_imports_resolve():
    """Every ``repro`` import in ``examples/*.py`` and ``benchmarks/*.py``
    names a module that exists and, for ``from ... import``, an attribute
    or submodule it has. Nothing in tier-1 runs those scripts, so a stale
    import would otherwise go unnoticed. The scripts are parsed, not run."""
    scripts = sorted(
        [*(_REPO_ROOT / "examples").glob("*.py"),
         *(_REPO_ROOT / "benchmarks").glob("*.py")]
    )
    assert scripts
    problems = []
    for path in scripts:
        where = path.relative_to(_REPO_ROOT)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                pairs = [(alias.name, None) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                pairs = [(node.module, alias.name) for alias in node.names]
            else:
                continue
            for module, name in pairs:
                if module.split(".")[0] != "repro":
                    continue
                try:
                    mod = importlib.import_module(module)
                    if name is not None and not hasattr(mod, name):
                        importlib.import_module(f"{module}.{name}")
                except ImportError:
                    problems.append(
                        f"{where}:{node.lineno}: {module}"
                        + (f" has no {name}" if name else " does not import")
                    )
    assert not problems, "stale repro imports:\n" + "\n".join(problems)


# ----------------------------------------------------------------------
# Dead-surface gate: every exported name has a user outside tests/
# ----------------------------------------------------------------------

#: Where a public name's users live: the package itself, the benchmark
#: harness, the tools, the examples and the paper-figure benchmarks
#: (every file under ``benchmarks/`` is one, whatever pytest calls it).
#: ``tests/`` is not a user: a name that only its own test calls is dead.
USER_ROOTS = ("src", "perfbench", "tools", "examples", "benchmarks")

#: Caught names kept on purpose. Only members of ``repro.api``'s public
#: records may stand here, each with its reason; anything else the gate
#: catches is deleted, or moved into ``tests/oracles.py`` when a test
#: compares against it.
DEAD_SURFACE_ALLOWLIST = {
    # Part of the job record `repro.api.serve` hands to callers (on
    # `ServiceReport.statuses`), for a caller that polls job states.
    "repro.api.types.JobStatus.terminal",
}

#: A string literal that names code: an identifier, a dotted path or a
#: ``"module:attribute"`` registry entry. Prose and messages do not count.
_NAME_LIKE = re.compile(r"[\w.]+(?::[\w.]+)?")
_WORD = re.compile(r"[A-Za-z_]\w*")


def _assigned_names(node) -> list[str]:
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [target.id for target in targets if isinstance(target, ast.Name)]


def _all_assignment(tree: ast.Module):
    """The module-level ``__all__`` assignment, or ``None``."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and (
            "__all__" in _assigned_names(node)
        ):
            return node
    return None


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def public_surface(root: Path, package: str) -> dict[str, tuple]:
    """``module.name`` -> (name, path, first line, last line) for every
    ``__all__`` entry that a module under ``root/src/package`` defines,
    plus ``module.Class.member`` for each public method or property of
    an exported class. A name a module only re-exports is its home's."""
    src = root / "src"
    surface = {}
    for path in sorted((src / package).rglob("*.py")):
        tree = _parse(path)
        declared = _all_assignment(tree)
        if declared is None:
            continue
        exported = {
            node.value for node in ast.walk(declared.value)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                names = _assigned_names(stmt)
            else:
                continue
            for name in exported.intersection(names):
                surface[f"{module}.{name}"] = (name, path, stmt.lineno, stmt.end_lineno)
                if not isinstance(stmt, ast.ClassDef):
                    continue
                for member in stmt.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                        not member.name.startswith("_")
                    ):
                        surface[f"{module}.{name}.{member.name}"] = (
                            member.name, path, member.lineno, member.end_lineno,
                        )
    return surface


def _words(node) -> list[str]:
    """The names ``node`` uses: a loaded ``Name`` or ``Attribute``, each
    part of an import alias, a keyword argument, or the words of a
    name-like string literal."""
    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
        return [node.id]
    if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
        return [node.attr]
    if isinstance(node, ast.alias):
        return [*node.name.split("."), *filter(None, [node.asname])]
    if isinstance(node, ast.keyword) and node.arg:
        return [node.arg]
    if isinstance(node, ast.Constant) and isinstance(node.value, str) and (
        _NAME_LIKE.fullmatch(node.value)
    ):
        return _WORD.findall(node.value)
    return []


def _user_files(root: Path) -> list[Path]:
    """Every ``.py`` file under ``USER_ROOTS`` but a test: ``test_*.py``
    or ``conftest.py`` outside ``benchmarks/``."""
    return [
        path
        for top in USER_ROOTS
        for path in sorted((root / top).rglob("*.py"))
        if top == "benchmarks"
        or not (path.name.startswith("test_") or path.name == "conftest.py")
    ]


def name_uses(root: Path) -> dict[str, list[tuple[Path, int]]]:
    """Every name the user files use -> where: (path, line). The strings
    of a module's ``__all__`` are declarations, not uses."""
    found: dict[str, list[tuple[Path, int]]] = {}
    for path in _user_files(root):
        tree = _parse(path)
        declared = _all_assignment(tree)
        skip = {id(node) for node in ast.walk(declared)} if declared else set()
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            for word in _words(node):
                found.setdefault(word, []).append((path, node.lineno))
    return found


def dead_public_surface(root: Path, package: str) -> list[str]:
    """The :func:`public_surface` entries whose name no user file uses
    outside the lines of that entry's own definition."""
    uses = name_uses(root)
    return sorted(
        qualname
        for qualname, (name, path, first, last) in public_surface(root, package).items()
        if all(
            where == path and first <= line <= last
            for where, line in uses.get(name, ())
        )
    )


def test_no_dead_public_surface():
    """Each name in a `src/repro` module's `__all__`, and each public
    method or property of a class exported that way, is used by a non-test
    file under `USER_ROOTS` — matched by bare name, so a name some other
    object also uses is never caught. Delete what this catches; a
    reference a test compares against moves into `tests/oracles.py`."""
    assert all(name.startswith("repro.api.") for name in DEAD_SURFACE_ALLOWLIST)
    dead = set(dead_public_surface(_REPO_ROOT, "repro"))
    stale = sorted(DEAD_SURFACE_ALLOWLIST - dead)
    assert not stale, f"allowlisted names that have a user now: {stale}"
    caught = sorted(dead - DEAD_SURFACE_ALLOWLIST)
    assert not caught, (
        "public names with no user outside tests/:\n" + "\n".join(caught)
    )


def _toy_repo(root: Path) -> Path:
    """``root/src/toy``: one module exporting a function and a class,
    each of which only uses itself."""
    pkg = root / "src" / "toy"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text('"""Toy."""\n\n__all__ = []\n')
    (pkg / "mod.py").write_text(
        '__all__ = ["helper", "Box"]\n'
        "\n"
        "def helper(n):\n"
        '    """Mentions helper in prose."""\n'
        "    return helper(n - 1) if n else 0\n"
        "\n"
        "class Box:\n"
        "    def open(self):\n"
        "        return Box()\n"
    )
    return root


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def test_dead_surface_gate_flags_a_function_with_no_user(tmp_path):
    """Uses inside a name's own definition, prose, messages and callers
    under tests/ or in a test file under a user root are not users."""
    root = _toy_repo(tmp_path)
    _write(root / "tests" / "test_mod.py", "from toy.mod import helper\nhelper(1)\n")
    _write(root / "perfbench" / "test_smoke.py", "from toy.mod import helper\n")
    _write(root / "tools" / "note.py", 'print("helper is slow")\n')
    assert dead_public_surface(root, "toy") == [
        "toy.mod.Box", "toy.mod.Box.open", "toy.mod.helper",
    ]


def test_dead_surface_gate_passes_a_tools_caller(tmp_path):
    root = _toy_repo(tmp_path)
    _write(root / "tools" / "run.py", "from toy import mod\nmod.helper(2)\n")
    assert "toy.mod.helper" not in dead_public_surface(root, "toy")


def test_dead_surface_gate_passes_a_registry_string(tmp_path):
    root = _toy_repo(tmp_path)
    _write(root / "src" / "toy" / "registry.py",
           '__all__ = []\nENTRIES = {"h": "toy.mod:helper", "b": ("toy.mod", "Box")}\n')
    assert dead_public_surface(root, "toy") == ["toy.mod.Box.open"]
