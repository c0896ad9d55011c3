"""Exporters: JSONL event streams, ``run.json`` artifacts, Chrome traces.

One telemetry session produces three machine-readable artifacts:

``events.jsonl``
    One JSON object per closed span — the raw event stream, grep- and
    stream-friendly.
``trace.json``
    The span tree in Chrome trace-event format (``"X"`` complete
    events); load it at ``chrome://tracing`` or https://ui.perfetto.dev.
``run.json``
    The single-file summary of a run, validated against
    :data:`RUN_SCHEMA`: experiment id, scale, git revision, wall time,
    every metric in the registry, a Top-down summary, and per-span-name
    totals. This is the artifact the ``repro report`` subcommand renders
    and diffs, and the unit the benchmark trajectory tracks.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import time
from pathlib import Path
from typing import Any

from repro._util import atomic_write_text, format_table
from repro.obs.metrics import parse_label_key
from repro.obs.session import Telemetry
from repro.obs.spans import SpanRecord

__all__ = [
    "SCHEMA_VERSION",
    "RUN_SCHEMA",
    "chrome_trace",
    "build_run_artifact",
    "validate_run",
    "load_run",
    "export_session",
    "write_events_jsonl",
    "read_events_jsonl",
    "render_run",
    "render_timeline",
    "diff_runs",
    "git_dirty",
    "git_revision",
]

SCHEMA_VERSION = 1

#: ``run.json`` top-level schema: field name -> (required, type(s), doc).
RUN_SCHEMA: dict[str, tuple[bool, tuple[type, ...], str]] = {
    "schema_version": (True, (int,), "artifact schema version (currently 1)"),
    "experiment": (True, (str,), "experiment id, e.g. 'fig3'"),
    "scale": (True, (str,), "proxy scale name: quick | medium | full"),
    "status": (True, (str,), "'ok', 'partial', or 'failed'"),
    "git_rev": (True, (str,), "short git revision ('unknown' outside a checkout)"),
    "created_unix": (True, (int, float), "artifact creation time (epoch seconds)"),
    "wall_seconds": (True, (int, float), "experiment wall-clock duration"),
    "metrics": (True, (dict,), "metrics registry snapshot: name -> scalar "
                               "(counter/gauge) or summary dict (histogram)"),
    "topdown": (True, (dict,), "mean Top-down slot percentages over the run's "
                               "profiled transcodes (may be empty)"),
    "spans": (True, (dict,), "per-span-name {calls, total_s} totals"),
    "meta": (False, (dict,), "free-form session metadata"),
    "failures": (False, (list,), "per-unit failures of a partial run "
                                 "(video, crf, refs, preset, error, attempts)"),
    "slo": (False, (dict,), "evaluated SLO report (spec name, ok, breached "
                            "objectives, per-objective burn rates)"),
    "trace_id": (False, (str,), "the session's trace id (links run.json to "
                                "its events.jsonl / trace.json spans)"),
}


def _git(*args: str) -> str | None:
    """Stripped stdout of ``git <args>`` run in the checkout this package
    lives in (never the process cwd, which may be another repository);
    ``None`` outside a checkout or when git fails."""
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def git_revision() -> str:
    """Short revision of the repo this module lives in, or 'unknown'."""
    return _git("rev-parse", "--short", "HEAD") or "unknown"


def git_dirty() -> bool:
    """Whether that repo has uncommitted changes, i.e. whether
    :func:`git_revision` names a commit the running code does not match.
    ``False`` outside a checkout: there is no revision claim to mislabel."""
    return bool(_git("status", "--porcelain"))


# ----------------------------------------------------------------------
# Chrome trace + JSONL
# ----------------------------------------------------------------------

def chrome_trace(records: list[SpanRecord]) -> dict[str, object]:
    """Span records as a Chrome trace-event document (complete events).

    Spans carrying a ``job`` attribute land on a per-job thread lane
    (named ``job N`` via thread-name metadata events), so a service
    run's flame graph separates into one complete submit→encode track
    per job; everything else shares lane 0.
    """
    events: list[dict[str, object]] = []
    job_tids: dict[object, int] = {}
    for r in sorted(records, key=lambda r: (r.start_ns, r.depth)):
        job = r.attrs.get("job")
        if job is None:
            tid = 0
        else:
            tid = job_tids.setdefault(job, len(job_tids) + 1)
        events.append(
            {
                "name": r.name,
                "ph": "X",
                "ts": r.start_ns / 1000.0,  # trace-event timestamps are µs
                "dur": r.duration_ns / 1000.0,
                "pid": 1,
                "tid": tid,
                "args": {k: _jsonable(v) for k, v in r.attrs.items()},
            }
        )
    meta: list[dict[str, object]] = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "args": {"name": f"job {job}"},
        }
        for job, tid in job_tids.items()
    ]
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def _jsonable(v: object) -> object:
    if isinstance(v, (str, int, float, bool)) or v is None:
        return v
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return str(v)


def write_events_jsonl(records: list[SpanRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r.as_dict(), default=str) + "\n")


def read_events_jsonl(path: str | Path) -> list[dict[str, object]]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


# ----------------------------------------------------------------------
# run.json
# ----------------------------------------------------------------------

def build_run_artifact(
    telemetry: Telemetry,
    *,
    experiment: str,
    scale: str,
    wall_seconds: float,
    status: str = "ok",
    failures: list[dict[str, object]] | None = None,
    slo: dict[str, object] | None = None,
) -> dict[str, object]:
    """Assemble the ``run.json`` document from a finished session.

    ``slo``, when given, is an evaluated
    :meth:`repro.obs.slo.SloReport.to_payload` embedded verbatim as the
    artifact's ``slo`` section.
    """
    metrics = telemetry.metrics.as_dict()
    topdown = {
        name.split(".", 1)[1]: snap["mean"]
        for name, snap in metrics.items()
        if name.startswith("topdown.") and isinstance(snap, dict)
    }
    artifact: dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "experiment": experiment,
        "scale": scale,
        "status": status,
        "git_rev": git_revision(),
        "created_unix": time.time(),
        "wall_seconds": float(wall_seconds),
        "metrics": metrics,
        "topdown": topdown,
        "spans": telemetry.spans.totals(),
        "meta": {k: _jsonable(v) for k, v in telemetry.meta.items()},
        "trace_id": telemetry.trace_id,
    }
    if failures is not None:
        artifact["failures"] = list(failures)
    if slo is not None:
        artifact["slo"] = dict(slo)
    validate_run(artifact)
    return artifact


def validate_run(obj: object) -> dict[str, object]:
    """Check ``obj`` against :data:`RUN_SCHEMA`; raise ``ValueError`` if bad."""
    if not isinstance(obj, dict):
        raise ValueError(f"run artifact must be an object, got {type(obj).__name__}")
    for name, (required, types, _doc) in RUN_SCHEMA.items():
        if name not in obj:
            if required:
                raise ValueError(f"run artifact missing required field {name!r}")
            continue
        if not isinstance(obj[name], types):
            expected = "/".join(t.__name__ for t in types)
            raise ValueError(
                f"run artifact field {name!r} must be {expected}, "
                f"got {type(obj[name]).__name__}"
            )
    unknown = set(obj) - set(RUN_SCHEMA)
    if unknown:
        raise ValueError(f"run artifact has unknown fields: {sorted(unknown)}")
    if obj["schema_version"] != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema_version {obj['schema_version']!r} "
            f"(this build reads {SCHEMA_VERSION})"
        )
    return obj


def load_run(path: str | Path) -> dict[str, object]:
    with open(path, encoding="utf-8") as fh:
        return validate_run(json.load(fh))


def export_session(
    telemetry: Telemetry,
    out_dir: str | Path,
    *,
    experiment: str,
    scale: str,
    wall_seconds: float,
    status: str = "ok",
    failures: list[dict[str, object]] | None = None,
    slo: dict[str, object] | None = None,
) -> dict[str, Path]:
    """Write run.json + events.jsonl + trace.json into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifact = build_run_artifact(
        telemetry,
        experiment=experiment,
        scale=scale,
        wall_seconds=wall_seconds,
        status=status,
        failures=failures,
        slo=slo,
    )
    paths = {
        "run": out / "run.json",
        "events": out / "events.jsonl",
        "trace": out / "trace.json",
    }
    atomic_write_text(
        paths["run"], json.dumps(artifact, indent=2, sort_keys=True) + "\n"
    )
    write_events_jsonl(telemetry.spans.finished, paths["events"])
    atomic_write_text(
        paths["trace"], json.dumps(chrome_trace(telemetry.spans.finished))
    )
    return paths


# ----------------------------------------------------------------------
# Rendering + diffing (the `repro report` subcommand)
# ----------------------------------------------------------------------

def _flatten_metrics(artifact: dict[str, object]) -> dict[str, float]:
    """Scalar view of a run's metrics: histograms contribute their
    mean/count, counters and gauges their value."""
    flat: dict[str, float] = {}
    for name, snap in artifact["metrics"].items():  # type: ignore[union-attr]
        if isinstance(snap, dict):
            flat[f"{name}.mean"] = float(snap.get("mean", 0.0))
            flat[f"{name}.count"] = float(snap.get("count", 0.0))
        else:
            flat[name] = float(snap)
    flat["wall_seconds"] = float(artifact["wall_seconds"])  # type: ignore[arg-type]
    return flat


#: The ``run.json`` sections another package writes, by dotted path:
#: the owner module and the report class whose ``from_payload`` reads it.
_OWNED = {
    "meta.loadtest": ("repro.loadgen.driver", "LoadtestReport"),
    "meta.fleet_compare": ("repro.service.fleetcompare", "FleetCompareReport"),
    "slo": ("repro.obs.slo", "SloReport"),
}


def _owned(artifact: dict[str, object], section: str) -> Any:
    """The report record behind ``section``, rebuilt by its owner's
    ``from_payload`` (the owner is imported only when the section is
    there); ``None`` when the run has no such section."""
    payload: object = artifact
    for key in section.split("."):
        payload = payload.get(key) if isinstance(payload, dict) else None
    if payload is None:
        return None
    module, name = _OWNED[section]
    return getattr(importlib.import_module(module), name).from_payload(payload)


def render_run(artifact: dict[str, object]) -> str:
    """Human-readable view of one ``run.json``: the sections
    :data:`RUN_SCHEMA` defines, plus each owned section's own table."""
    head = (
        f"run: {artifact['experiment']} @ scale={artifact['scale']} "
        f"[{artifact['status']}]\n"
        f"git={artifact['git_rev']}  wall={artifact['wall_seconds']:.2f}s  "
        f"schema=v{artifact['schema_version']}"
    )
    parts = [head]
    failures = artifact.get("failures") or []
    if failures:
        columns = ["video", "crf", "refs", "preset", "error", "attempts"]
        rows = [
            ["-" if f.get(c) is None else f[c] for c in columns]
            for f in failures
        ]
        parts.append("\nfailed cells:\n" + format_table(columns, rows))
    topdown = artifact.get("topdown") or {}
    if topdown:
        rows = [[k, v] for k, v in sorted(topdown.items())]
        parts.append("\ntopdown (mean % of slots):\n"
                     + format_table(["slot", "%"], rows, floatfmt=".2f"))
    for section in _OWNED:
        report = _owned(artifact, section)
        if report is not None:
            parts.append("\n" + report.render())
    latency = _stage_latency_rows(artifact)
    if latency:
        parts.append("\nstage latency (per config):\n"
                     + format_table(
                         ["stage", "config", "count", "p50 s", "p90 s",
                          "p99 s"],
                         latency, floatfmt=".4g"))
    flat = _flatten_metrics(artifact)
    rows = [[k, v] for k, v in sorted(flat.items())]
    parts.append("\nmetrics:\n" + format_table(["metric", "value"], rows,
                                               floatfmt=".4g"))
    spans = artifact.get("spans") or {}
    if spans:
        rows = [[name, agg["calls"], agg["total_s"]]
                for name, agg in sorted(spans.items())]
        parts.append("\nspans:\n"
                     + format_table(["span", "calls", "total s"], rows,
                                    floatfmt=".4g"))
    return "\n".join(parts)


def _stage_latency_rows(artifact: dict[str, object]) -> list[list[object]]:
    """Rows for the per-config stage-latency table: every labeled
    histogram series carrying a ``stage`` label, grouped by stage then by
    the remaining labels (config, policy, ...)."""
    rows: list[list[object]] = []
    for key, snap in sorted(artifact["metrics"].items()):  # type: ignore[union-attr]
        if not isinstance(snap, dict) or "{" not in key:
            continue
        _name, labels = parse_label_key(key)
        stage = labels.pop("stage", None)
        if stage is None:
            continue
        config = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        rows.append([
            stage, config or "-", snap.get("count", 0),
            snap.get("p50", 0.0), snap.get("p90", 0.0),
            snap.get("p99", 0.0),
        ])
    return rows


def render_timeline(records: list[dict[str, object]], job: object) -> str:
    """Per-job flame graph in text form, from ``events.jsonl`` rows.

    Selects the spans belonging to ``job`` — those whose ``job``
    attribute matches, plus their ancestors (the submit/round scaffolding
    they hang under) — and renders them as a depth-indented tree with
    millisecond offsets relative to the earliest selected span.
    """
    job_str = str(job)
    spans = [r for r in records if r.get("kind", "span") == "span"]
    by_id = {int(r["span_id"]): r for r in spans}  # type: ignore[arg-type]
    selected: set[int] = set()
    for r in spans:
        attrs = r.get("attrs") or {}
        if str(attrs.get("job")) != job_str:  # type: ignore[union-attr]
            continue
        sid: int | None = int(r["span_id"])  # type: ignore[arg-type]
        while sid is not None and sid not in selected:
            selected.add(sid)
            parent = by_id[sid].get("parent_id")
            sid = int(parent) if parent is not None else None
            if sid is not None and sid not in by_id:
                break
    if not selected:
        return f"no spans found for job {job_str}"
    chosen = sorted(
        (by_id[sid] for sid in selected),
        key=lambda r: (int(r["start_ns"]), int(r.get("depth", 0))),  # type: ignore[arg-type]
    )
    t0 = min(int(r["start_ns"]) for r in chosen)  # type: ignore[arg-type]
    lines = [f"timeline for job {job_str} ({len(chosen)} spans):"]
    for r in chosen:
        depth = int(r.get("depth", 0))  # type: ignore[arg-type]
        start_ms = (int(r["start_ns"]) - t0) / 1e6  # type: ignore[arg-type]
        dur_ms = (int(r["end_ns"]) - int(r["start_ns"])) / 1e6  # type: ignore[arg-type]
        attrs = r.get("attrs") or {}
        extras = " ".join(
            f"{k}={v}" for k, v in sorted(attrs.items())  # type: ignore[union-attr]
            if k not in ("job",) and isinstance(v, (str, int, float, bool))
        )
        tail = f"  [{extras}]" if extras else ""
        lines.append(
            f"  {'  ' * depth}{r['name']:<24s} "
            f"+{start_ms:9.3f}ms  {dur_ms:9.3f}ms{tail}"
        )
    return "\n".join(lines)


def diff_runs(a: dict[str, object], b: dict[str, object]) -> str:
    """Metric-by-metric comparison of two run artifacts."""
    head = (
        f"diff: {a['experiment']}@{a['scale']} ({a['git_rev']})  vs  "
        f"{b['experiment']}@{b['scale']} ({b['git_rev']})"
    )
    fa, fb = _flatten_metrics(a), _flatten_metrics(b)
    rows = []
    for name in sorted(set(fa) | set(fb)):
        va, vb = fa.get(name), fb.get(name)
        if va is None or vb is None:
            rows.append([name,
                         "-" if va is None else format(va, ".4g"),
                         "-" if vb is None else format(vb, ".4g"),
                         "(only one run)", ""])
            continue
        delta = vb - va
        pct = f"{delta / va * 100.0:+.2f}%" if va else ("+inf%" if delta else "0%")
        rows.append([name, format(va, ".4g"), format(vb, ".4g"),
                     format(delta, "+.4g"), pct])
    table = format_table(["metric", "a", "b", "delta", "delta %"], rows)
    parts = [head, table]
    la, lb = _stage_latency_rows(a), _stage_latency_rows(b)
    if la or lb:
        index_a = {(r[0], r[1]): r for r in la}
        index_b = {(r[0], r[1]): r for r in lb}
        rows = []
        for key in sorted(set(index_a) | set(index_b)):
            ra, rb = index_a.get(key), index_b.get(key)
            p99a = format(ra[5], ".4g") if ra else "-"
            p99b = format(rb[5], ".4g") if rb else "-"
            delta = (format(rb[5] - ra[5], "+.4g")
                     if ra and rb else "(only one run)")
            rows.append([key[0], key[1], p99a, p99b, delta])
        parts.append("stage latency p99 (per config):\n"
                     + format_table(["stage", "config", "a", "b", "delta"],
                                    rows))
    jpd_a, jpd_b = (
        {r.fleet.name: r.jobs_per_dollar for r in fc.results} if fc else {}
        for fc in (_owned(x, "meta.fleet_compare") for x in (a, b))
    )
    if jpd_a or jpd_b:
        rows = []
        for name in sorted(set(jpd_a) | set(jpd_b)):
            va, vb = jpd_a.get(name), jpd_b.get(name)
            delta = "(only one run)"
            if va is not None and vb is not None:
                delta = format(vb - va, "+.4g")
                if va:
                    delta += f" ({(vb - va) / va * 100.0:+.2f}%)"
            rows.append([name, "-" if va is None else format(va, ".4g"),
                         "-" if vb is None else format(vb, ".4g"), delta])
        parts.append("fleet-compare throughput/$ (jobs per provisioned "
                     "dollar):\n"
                     + format_table(["fleet", "a", "b", "delta"], rows))
    sa, sb = _owned(a, "slo"), _owned(b, "slo")
    if sa is not None or sb is not None:
        objs_a, objs_b = ({r.name: r for r in s.results} if s else {}
                          for s in (sa, sb))

        def _cell(r: Any) -> str:
            if r is None:
                return "-"
            return f"{'pass' if r.ok else 'FAIL'} (burn {r.burn_rate:.3g})"

        rows = [[name, _cell(objs_a.get(name)), _cell(objs_b.get(name))]
                for name in sorted(set(objs_a) | set(objs_b))]
        parts.append("slo objectives:\n"
                     + format_table(["objective", "a", "b"], rows))
    return "\n".join(parts)
