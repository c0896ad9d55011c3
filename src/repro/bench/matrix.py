"""Declarative benchmark matrices: one spec file → a cross-product of runs.

A matrix spec is a small YAML or JSON document that declares *axes*
(kernel backend, workload clip, offered rate, fleet, objective, ...)
whose cross-product expands into cells, each executed through the
:mod:`repro.api` facade as one *leg* kind:

``encode``
    One transcode per cell (``clip`` × ``kernels`` × crf/preset knobs);
    metrics are the speed/quality/size triangle.
``bench``
    One harness kernel micro-benchmark per cell (both backends, as
    :func:`repro.bench.harness.run_kernel_benches` always measures).
``sweep``
    One paper experiment id per cell at a named scale.
``loadtest``
    One open-loop load test per cell (arrival process × rate × mix).
``fleet-compare``
    One fleet definition per cell under a placement objective.

Every cell resolves its knobs through :class:`repro.api.Settings` with
the documented layering **spec < environment < CLI**: the spec's
``settings:`` section sits *below* ``REPRO_*`` variables, which sit
below explicit CLI flags. The axis values that define a cell always pin
their own fields on top — otherwise an exported ``REPRO_KERNELS`` would
collapse a kernel-backend axis to a single backend and the matrix would
silently measure one point.

Schema errors carry file/line context (``spec.yaml:7: unknown axis
...``) via the YAML node marks (or a best-effort key scan for JSON), so
``repro matrix validate`` failures point at the offending line.
"""

from __future__ import annotations

import itertools
import json
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro._util import atomic_write_text
from repro.api.settings import FIELD_TABLE, Settings
from repro.api.types import QUICK_SIZING

__all__ = [
    "LEG_KINDS",
    "MATRIX_SCHEMA",
    "MatrixCell",
    "MatrixSpec",
    "SpecError",
    "load_matrix",
    "load_spec",
    "resolve_cell_settings",
    "run_matrix",
    "write_matrix",
]

MATRIX_SCHEMA = "repro-bench-matrix/v1"

#: Axis/param keys each leg kind understands.
LEG_KINDS: dict[str, frozenset[str]] = {
    "encode": frozenset({"clip", "preset", "crf", "refs", "kernels"}),
    "bench": frozenset({"kernel", "reps"}),
    "sweep": frozenset({"experiment", "scale", "kernels", "jobs"}),
    "loadtest": frozenset(
        {"arrivals", "rate", "duration", "mix", "fleet", "objective",
         "seed", "queue_capacity"}
    ),
    "fleet-compare": frozenset(
        {"fleet", "objective", "mix", "count", "seed", "deadline_s",
         "budget_usd"}
    ),
}

#: Keys a leg *must* find among its axes or params.
_REQUIRED_KEYS: dict[str, frozenset[str]] = {
    "encode": frozenset({"clip"}),
    "bench": frozenset({"kernel"}),
    "sweep": frozenset({"experiment"}),
    "loadtest": frozenset(),
    "fleet-compare": frozenset(),
}

#: Per-leg mapping of axis/param key -> Settings field it pins. Keys not
#: listed here are passed to the leg function directly.
_LEG_SETTINGS_KEYS: dict[str, dict[str, str]] = {
    "encode": {"kernels": "kernels"},
    "bench": {},
    "sweep": {"kernels": "kernels", "jobs": "jobs"},
    "loadtest": {
        "arrivals": "loadtest_arrivals",
        "rate": "loadtest_rate",
        "duration": "loadtest_duration",
        "mix": "loadtest_mix",
        "fleet": "fleet",
        "objective": "objective",
    },
    "fleet-compare": {"mix": "loadtest_mix", "objective": "objective"},
}

_TOP_KEYS = frozenset(
    {"name", "description", "leg", "axes", "params", "settings"}
)


class SpecError(ValueError):
    """A matrix spec failed to parse or validate.

    Carries the spec ``path`` and 1-based ``line`` (when known) so the
    rendered message reads like a compiler diagnostic:
    ``examples/bench/kernel_workload.yaml:9: unknown axis 'preset'``.
    """

    def __init__(
        self,
        message: str,
        *,
        path: str | Path | None = None,
        line: int | None = None,
    ) -> None:
        self.path = str(path) if path is not None else None
        self.line = line
        prefix = ""
        if self.path is not None:
            prefix = self.path + (f":{line}" if line else "") + ": "
        super().__init__(prefix + message)


# ----------------------------------------------------------------------
# Spec model
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MatrixCell:
    """One expanded cell: its index, stable id, and axis values."""

    index: int
    cell_id: str
    values: dict[str, Any]


@dataclass(frozen=True)
class MatrixSpec:
    """A validated benchmark-matrix declaration.

    ``axes`` preserves declaration order — cell ids and the expansion
    order derive from it, so the same spec always produces the same
    ``matrix.json`` layout.
    """

    name: str
    leg: str
    axes: tuple[tuple[str, tuple[Any, ...]], ...]
    description: str = ""
    params: dict[str, Any] = field(default_factory=dict)
    settings: dict[str, Any] = field(default_factory=dict)
    #: Originating file, for error messages ("<inline>" when built in code).
    source: str = "<inline>"

    def __post_init__(self) -> None:
        _validate_spec(self)

    def n_cells(self) -> int:
        """Cross-product size: the product of the axis lengths."""
        n = 1
        for _name, values in self.axes:
            n *= len(values)
        return n

    def expand(self) -> list[MatrixCell]:
        """The full cross-product, in axis declaration order."""
        names = [name for name, _values in self.axes]
        cells = []
        for index, combo in enumerate(
            itertools.product(*(values for _name, values in self.axes))
        ):
            values = dict(zip(names, combo))
            cell_id = "/".join(f"{k}={v}" for k, v in values.items())
            cells.append(MatrixCell(index=index, cell_id=cell_id, values=values))
        return cells


def _validate_spec(spec: MatrixSpec) -> None:
    if not spec.name or not str(spec.name).strip():
        raise SpecError("spec needs a non-empty 'name'", path=spec.source)
    if spec.leg not in LEG_KINDS:
        raise SpecError(
            f"unknown leg {spec.leg!r}; choose from "
            + ", ".join(sorted(LEG_KINDS)),
            path=spec.source,
        )
    if not spec.axes:
        raise SpecError(
            "spec needs at least one axis under 'axes'", path=spec.source
        )
    allowed = LEG_KINDS[spec.leg]
    seen_axes: set[str] = set()
    for axis, values in spec.axes:
        if axis in seen_axes:
            raise SpecError(
                f"duplicate axis {axis!r}", path=spec.source
            )
        seen_axes.add(axis)
        if axis not in allowed:
            raise SpecError(
                f"unknown axis {axis!r} for leg {spec.leg!r}; choose from "
                + ", ".join(sorted(allowed)),
                path=spec.source,
            )
        if not values:
            raise SpecError(
                f"axis {axis!r} has no values", path=spec.source
            )
        rendered = [str(v) for v in values]
        if len(set(rendered)) != len(rendered):
            dupes = sorted(
                {v for v in rendered if rendered.count(v) > 1}
            )
            raise SpecError(
                f"axis {axis!r} repeats value(s) {', '.join(dupes)} — "
                "duplicate cells would double-count the same run",
                path=spec.source,
            )
    for key in spec.params:
        if key not in allowed:
            raise SpecError(
                f"unknown param {key!r} for leg {spec.leg!r}; choose from "
                + ", ".join(sorted(allowed)),
                path=spec.source,
            )
        if key in seen_axes:
            raise SpecError(
                f"param {key!r} collides with an axis of the same name",
                path=spec.source,
            )
    missing = _REQUIRED_KEYS[spec.leg] - seen_axes - set(spec.params)
    if missing:
        raise SpecError(
            f"leg {spec.leg!r} needs {', '.join(sorted(missing))} as an "
            "axis or param",
            path=spec.source,
        )
    # ``retry`` (a structured policy with its own env contract) and the
    # matrix/history pointers (circular) are not spec-settable.
    settable = sorted(k.field for k in FIELD_TABLE.values() if k.in_spec)
    for key in spec.settings:
        if key not in settable:
            raise SpecError(
                f"unknown settings field {key!r}; choose from "
                + ", ".join(settable),
                path=spec.source,
            )
    mapping = _LEG_SETTINGS_KEYS[spec.leg]
    for key in seen_axes | set(spec.params):
        pinned = mapping.get(key)
        if pinned is not None and pinned in spec.settings:
            raise SpecError(
                f"settings field {pinned!r} is shadowed by the {key!r} "
                "axis/param — drop one of them",
                path=spec.source,
            )


# ----------------------------------------------------------------------
# Loading (YAML / JSON with line context)
# ----------------------------------------------------------------------

def _yaml_line_map(text: str) -> dict[str, int]:
    """Map ``key`` and ``parent.key`` paths to 1-based line numbers,
    from the YAML node marks (two levels deep is all a spec has)."""
    import yaml

    lines: dict[str, int] = {}
    try:
        root = yaml.compose(text)
    except yaml.YAMLError:
        return lines
    if not isinstance(root, yaml.MappingNode):
        return lines
    for key_node, value_node in root.value:
        key = str(key_node.value)
        lines.setdefault(key, key_node.start_mark.line + 1)
        if isinstance(value_node, yaml.MappingNode):
            for sub_key, _sub_val in value_node.value:
                path = f"{key}.{sub_key.value}"
                lines.setdefault(path, sub_key.start_mark.line + 1)
                lines.setdefault(str(sub_key.value), sub_key.start_mark.line + 1)
    return lines


def _json_line_map(text: str) -> dict[str, int]:
    """Best-effort map of quoted object keys to 1-based line numbers."""
    lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        for match in re.finditer(r'"([^"\\]+)"\s*:', line):
            lines.setdefault(match.group(1), lineno)
    return lines


def _parse_yaml(text: str, path: Path) -> tuple[Any, dict[str, int]]:
    try:
        import yaml
    except ImportError:
        raise SpecError(
            "PyYAML is not installed; write the spec as JSON instead",
            path=path,
        ) from None
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        raise SpecError(
            str(exc).replace("\n", " "),
            path=path,
            line=mark.line + 1 if mark is not None else None,
        ) from None
    return data, _yaml_line_map(text)


def _parse_json(text: str, path: Path) -> tuple[Any, dict[str, int]]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(exc.msg, path=path, line=exc.lineno) from None
    return data, _json_line_map(text)


def load_spec(path: str | Path) -> MatrixSpec:
    """Load and validate a matrix spec file (``.yaml``/``.yml``/``.json``).

    Raises :class:`SpecError` with file/line context on any parse or
    validation failure.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SpecError(f"cannot read spec: {exc}", path=path) from None
    if path.suffix.lower() in (".yaml", ".yml"):
        data, lines = _parse_yaml(text, path)
    else:
        data, lines = _parse_json(text, path)
    return _build_spec(data, lines, path)


def _at(lines: Mapping[str, int], *keys: str) -> int | None:
    for key in keys:
        if key in lines:
            return lines[key]
    return None


def _build_spec(
    data: Any, lines: Mapping[str, int], path: Path
) -> MatrixSpec:
    if not isinstance(data, dict):
        raise SpecError(
            f"spec must be a mapping, got {type(data).__name__}", path=path
        )
    for key in data:
        if key not in _TOP_KEYS:
            raise SpecError(
                f"unknown top-level key {key!r}; choose from "
                + ", ".join(sorted(_TOP_KEYS)),
                path=path,
                line=_at(lines, str(key)),
            )
    for key in ("name", "leg"):
        if key not in data:
            raise SpecError(f"spec is missing {key!r}", path=path)
    axes_raw = data.get("axes")
    if not isinstance(axes_raw, dict) or not axes_raw:
        raise SpecError(
            "'axes' must be a non-empty mapping of axis -> value list",
            path=path,
            line=_at(lines, "axes"),
        )
    axes: list[tuple[str, tuple[Any, ...]]] = []
    for axis, values in axes_raw.items():
        if not isinstance(values, list):
            raise SpecError(
                f"axis {axis!r} must be a list of values, got "
                f"{type(values).__name__}",
                path=path,
                line=_at(lines, f"axes.{axis}", str(axis)),
            )
        for v in values:
            if not isinstance(v, (str, int, float, bool)) or v is None:
                raise SpecError(
                    f"axis {axis!r} values must be scalars, got "
                    f"{type(v).__name__}",
                    path=path,
                    line=_at(lines, f"axes.{axis}", str(axis)),
                )
        axes.append((str(axis), tuple(values)))
    params = data.get("params") or {}
    if not isinstance(params, dict):
        raise SpecError(
            "'params' must be a mapping",
            path=path,
            line=_at(lines, "params"),
        )
    settings = data.get("settings") or {}
    if not isinstance(settings, dict):
        raise SpecError(
            "'settings' must be a mapping",
            path=path,
            line=_at(lines, "settings"),
        )
    try:
        return MatrixSpec(
            name=str(data["name"]),
            leg=str(data["leg"]),
            axes=tuple(axes),
            description=str(data.get("description", "")),
            params={str(k): v for k, v in params.items()},
            settings={str(k): v for k, v in settings.items()},
            source=str(path),
        )
    except SpecError as exc:
        if exc.line is not None:
            raise
        # Re-anchor validation errors at the most relevant line we know.
        token = _guess_error_token(str(exc))
        raise SpecError(
            str(exc).split(": ", 1)[-1],
            path=path,
            line=_at(lines, *token),
        ) from None


def _guess_error_token(message: str) -> tuple[str, ...]:
    """Pull quoted identifiers out of a validation message so the
    re-raised error can point at their defining line."""
    quoted = re.findall(r"'([^']+)'", message)
    keys: list[str] = []
    for name in quoted:
        keys.extend((f"axes.{name}", f"params.{name}",
                     f"settings.{name}", name))
    keys.extend(("axes", "leg", "name"))
    return tuple(keys)


# ----------------------------------------------------------------------
# Settings resolution: spec < env < CLI (< the cell's own axis pins)
# ----------------------------------------------------------------------

def resolve_cell_settings(
    spec: MatrixSpec,
    cell: MatrixCell | Mapping[str, Any],
    cli_overrides: Mapping[str, Any] | None = None,
) -> Settings:
    """Resolve one cell's :class:`Settings` with the documented layering.

    Weakest to strongest: the spec's ``settings:`` section, then the
    environment (:meth:`Settings.env_overrides`), then ``cli_overrides``
    (flag values, already field-named), then the Settings-mapped axis
    values and params that define this cell — which always win, since
    they *are* the cell's identity.
    """
    values = cell.values if isinstance(cell, MatrixCell) else dict(cell)
    spec_layer = {
        key: FIELD_TABLE[key].coerce(value)
        for key, value in spec.settings.items()
    }
    mapping = _LEG_SETTINGS_KEYS[spec.leg]
    pin_layer = {}
    for key, value in {**spec.params, **values}.items():
        fieldname = mapping.get(key)
        if fieldname is not None:
            pin_layer[fieldname] = FIELD_TABLE[fieldname].coerce(value)
    env_layer = Settings.env_overrides()
    cli_layer = {
        key: FIELD_TABLE[key].coerce(value)
        for key, value in (cli_overrides or {}).items()
        if value is not None
    }
    return Settings(**{**spec_layer, **env_layer, **cli_layer, **pin_layer})


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------

def _leg_knobs(spec: MatrixSpec, cell: MatrixCell) -> dict[str, Any]:
    """The cell's direct leg kwargs: params + axis values, minus the
    keys that resolved through Settings."""
    mapping = _LEG_SETTINGS_KEYS[spec.leg]
    knobs = {**spec.params, **cell.values}
    return {k: v for k, v in knobs.items() if k not in mapping}


def _run_encode(knobs: dict[str, Any], settings: Settings,
                *, quick: bool) -> dict[str, float]:
    from repro.api import encode

    sizing = QUICK_SIZING if quick else {}
    overrides: dict[str, Any] = {}
    if "preset" in knobs:
        overrides["preset"] = str(knobs["preset"])
    if "crf" in knobs:
        overrides["crf"] = int(knobs["crf"])
    if "refs" in knobs:
        overrides["refs"] = int(knobs["refs"])
    result = encode(str(knobs["clip"]), **overrides, **sizing)
    return {
        "encode_s": float(result.encode_seconds),
        "psnr_db": float(result.psnr_db),
        "bitrate_kbps": float(result.bitrate_kbps),
    }


def _run_bench_leg(knobs: dict[str, Any], *, reps: int) -> dict[str, float]:
    from repro.bench.harness import KERNEL_BENCH_NAMES, run_kernel_benches
    from repro.obs import MetricsRegistry

    name = str(knobs["kernel"])
    if name not in KERNEL_BENCH_NAMES:
        raise ValueError(
            f"unknown kernel workload {name!r}; choose from "
            + ", ".join(KERNEL_BENCH_NAMES)
        )
    rows = run_kernel_benches(
        MetricsRegistry(), reps=int(knobs.get("reps", reps)), names=[name]
    )
    return {k: float(v) for k, v in rows[name].items()}


def _run_sweep(knobs: dict[str, Any]) -> dict[str, float]:
    from repro.api import sweep

    t0 = time.perf_counter()
    output = sweep(str(knobs["experiment"]), str(knobs.get("scale", "quick")))
    return {
        "wall_s": time.perf_counter() - t0,
        "output_lines": float(len(output.splitlines())),
    }


def _run_loadtest(knobs: dict[str, Any], settings: Settings,
                  *, quick: bool) -> dict[str, float]:
    from repro.api import LoadtestSpec, ServiceConfig, loadtest

    seed = int(knobs.get("seed", 0))
    spec = LoadtestSpec(
        arrivals=settings.loadtest_arrivals,
        rates=settings.loadtest_rate,
        duration_s=settings.loadtest_duration,
        mix=settings.loadtest_mix,
        seed=seed,
    )
    config = ServiceConfig.from_settings(
        settings, quick=quick, seed=seed,
        queue_capacity=int(knobs.get("queue_capacity", 64)),
    )
    report = loadtest(spec, config)
    legs = report.legs
    return {
        "offered": float(sum(leg.offered for leg in legs)),
        "admitted": float(sum(leg.admitted for leg in legs)),
        "shed": float(sum(leg.shed for leg in legs)),
        "completed": float(sum(leg.completed for leg in legs)),
        "failed": float(sum(leg.failed for leg in legs)),
        "achieved_rps": float(legs[-1].achieved_rps) if legs else 0.0,
        "e2e_p99_s": max((leg.e2e_p99_s for leg in legs), default=0.0),
    }


def _resolve_fleets(value: Any):
    """A fleet-compare axis value: a shipped fleet name, or NAME=SPEC."""
    from repro.service.fleetcompare import EXAMPLE_FLEETS, FleetDef

    if value is None:
        return None
    raw = str(value)
    for fleet in EXAMPLE_FLEETS:
        if fleet.name == raw:
            return (fleet,)
    name, sep, spec = raw.partition("=")
    if sep and name.strip() and spec.strip():
        return (FleetDef(name=name.strip(), spec=spec.strip()),)
    raise ValueError(
        f"unknown fleet {raw!r}: expected a shipped fleet name "
        f"({', '.join(f.name for f in EXAMPLE_FLEETS)}) or NAME=SPEC"
    )


def _run_fleet_compare(knobs: dict[str, Any], settings: Settings,
                       *, quick: bool) -> dict[str, float]:
    from repro.api import fleet_compare

    sizing = QUICK_SIZING if quick else {}
    report = fleet_compare(
        _resolve_fleets(knobs.get("fleet")),
        objective=settings.objective,
        mix=settings.loadtest_mix,
        count=int(knobs.get("count", 8 if quick else 16)),
        seed=int(knobs.get("seed", 0)),
        deadline_s=knobs.get("deadline_s"),
        budget_usd=knobs.get("budget_usd"),
        **sizing,
    )
    best = report.ranked()[0]
    return {
        "completed": float(best.completed),
        "failed": float(best.failed),
        "jobs_per_dollar": float(best.jobs_per_dollar),
        "e2e_p99_s": float(best.e2e_p99_s),
        "cost_per_completed_usd": float(best.cost_per_completed_usd),
    }


def _run_cell(spec: MatrixSpec, cell: MatrixCell, settings: Settings,
              *, quick: bool, reps: int) -> dict[str, float]:
    knobs = _leg_knobs(spec, cell)
    if spec.leg == "encode":
        return _run_encode(knobs, settings, quick=quick)
    if spec.leg == "bench":
        return _run_bench_leg(knobs, reps=reps)
    if spec.leg == "sweep":
        return _run_sweep(knobs)
    if spec.leg == "loadtest":
        return _run_loadtest(knobs, settings, quick=quick)
    if spec.leg == "fleet-compare":
        return _run_fleet_compare(knobs, settings, quick=quick)
    raise ValueError(f"unknown leg {spec.leg!r}")  # unreachable post-validate


def run_matrix(
    spec: MatrixSpec,
    *,
    quick: bool = False,
    reps: int = 3,
    cli_overrides: Mapping[str, Any] | None = None,
) -> dict[str, object]:
    """Execute every cell of ``spec`` and return the matrix artifact.

    Cells run in expansion order; a failing cell records ``status:
    "failed"`` with its error and the matrix continues (partial coverage
    beats none — the caller decides how to gate). Settings are resolved
    and applied per cell and reset afterwards, so a matrix run never
    leaks configuration into the host process.
    """
    from repro.bench.report import current_rev, working_tree_dirty

    cells = spec.expand()
    records: list[dict[str, object]] = []
    try:
        for cell in cells:
            t0 = time.perf_counter()
            record: dict[str, object] = {
                "id": cell.cell_id,
                "values": dict(cell.values),
                "status": "ok",
                "error": None,
                "metrics": {},
            }
            try:
                settings = resolve_cell_settings(spec, cell, cli_overrides)
                settings.apply()
                record["metrics"] = _run_cell(
                    spec, cell, settings, quick=quick, reps=reps
                )
            except Exception as exc:  # noqa: BLE001 — per-cell isolation
                record["status"] = "failed"
                record["error"] = f"{type(exc).__name__}: {exc}"
            record["wall_s"] = time.perf_counter() - t0
            records.append(record)
    finally:
        Settings.reset()
    return {
        "schema": MATRIX_SCHEMA,
        "name": spec.name,
        "description": spec.description,
        "leg": spec.leg,
        "rev": current_rev(),
        "dirty": working_tree_dirty(),
        "timestamp": time.time(),
        "quick": quick,
        "axes": {name: list(values) for name, values in spec.axes},
        "cells": records,
    }


def write_matrix(
    payload: dict[str, object], path: str | Path = "matrix.json"
) -> Path:
    """Write the matrix artifact as JSON; returns the path written."""
    return atomic_write_text(
        path, json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


def load_matrix(path: str | Path) -> dict[str, object]:
    """Read a matrix artifact; raises ValueError on a schema mismatch."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("schema") != MATRIX_SCHEMA:
        raise ValueError(
            f"{path}: not a {MATRIX_SCHEMA} artifact "
            f"(schema={payload.get('schema')!r})"
        )
    return payload
