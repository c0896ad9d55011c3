"""Telemetry subsystem: traces, metrics, SLOs, and run artifacts.

The observability layer for the encode → simulate → schedule pipeline
and the job service on top of it. Five pieces:

- :mod:`repro.obs.spans` — nested wall-clock spans with attributes,
  plus the :class:`~repro.obs.spans.TraceContext` that threads a trace
  across process boundaries (worker span trees are re-parented into the
  parent session on merge);
- :mod:`repro.obs.metrics` — counters, gauges, fixed-bucket histograms,
  all optionally labeled (Prometheus-style series);
- :mod:`repro.obs.slo` — declarative service-level objectives evaluated
  against live registries or exported ``run.json`` metrics;
- :mod:`repro.obs.expose` — Prometheus text rendering and the interval
  snapshotter behind ``repro serve --metrics-out``;
- :mod:`repro.obs.export` — JSONL event stream, Chrome trace, and the
  validated ``run.json`` artifact (plus rendering/diffing/timelines for
  ``repro report``).

Instrumented code uses only the cheap front-door helpers re-exported
here (:func:`span`, :func:`inc`, :func:`observe`, :func:`set_gauge`,
:func:`current`, :func:`enabled`); they no-op when no
:func:`telemetry_session` is active, which is the default. The CLI's
``--telemetry OUT_DIR`` flag opens a session around each experiment and
exports its artifacts — see the README's "Telemetry & run artifacts"
section for the schema.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    label_key,
    latency_buckets,
    parse_label_key,
)
from repro.obs.session import (
    NestedSessionError,
    Telemetry,
    current,
    current_trace_context,
    enabled,
    inc,
    merge_worker_state,
    observe,
    reset_for_subprocess,
    set_gauge,
    span,
    telemetry_session,
)
from repro.obs.spans import SpanRecord, SpanRecorder, TraceContext

#: Exporter/SLO/exposition symbols resolved lazily (PEP 562): the hot
#: modules import `repro.obs.session` at startup, and that must not drag
#: in the exporter's subprocess/json machinery on the untelemetered path.
_EXPORT_SYMBOLS = frozenset({
    "RUN_SCHEMA",
    "SCHEMA_VERSION",
    "build_run_artifact",
    "chrome_trace",
    "diff_runs",
    "export_session",
    "load_run",
    "read_events_jsonl",
    "render_run",
    "render_timeline",
    "validate_run",
    "write_events_jsonl",
    "git_revision",
})

_SLO_SYMBOLS = frozenset({
    "SloObjective",
    "SloReport",
    "SloSpec",
    "evaluate_slo",
    "load_slo_spec",
})

_EXPOSE_SYMBOLS = frozenset({
    "MetricsSnapshotter",
    "render_prometheus",
})


def __getattr__(name: str):
    if name in _EXPORT_SYMBOLS:
        from repro.obs import export

        return getattr(export, name)
    if name in _SLO_SYMBOLS:
        from repro.obs import slo

        return getattr(slo, name)
    if name in _EXPOSE_SYMBOLS:
        from repro.obs import expose

        return getattr(expose, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "RUN_SCHEMA",
    "SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshotter",
    "NestedSessionError",
    "SloObjective",
    "SloReport",
    "SloSpec",
    "SpanRecord",
    "SpanRecorder",
    "Telemetry",
    "TraceContext",
    "build_run_artifact",
    "chrome_trace",
    "current",
    "current_trace_context",
    "diff_runs",
    "enabled",
    "evaluate_slo",
    "export_session",
    "inc",
    "label_key",
    "latency_buckets",
    "load_run",
    "load_slo_spec",
    "merge_worker_state",
    "observe",
    "parse_label_key",
    "read_events_jsonl",
    "render_prometheus",
    "render_run",
    "render_timeline",
    "reset_for_subprocess",
    "set_gauge",
    "span",
    "telemetry_session",
    "validate_run",
    "write_events_jsonl",
]
