"""Telemetry subsystem: traces, metrics, SLOs, and run artifacts.

The observability layer for the encode → simulate → schedule pipeline
and the job service on top of it. Six pieces:

- :mod:`repro.obs.session` — the per-process telemetry session and the
  cheap front-door helpers instrumented code calls (``span``, ``inc``,
  ``observe``, ``set_gauge``, ``current``, ``enabled``); they no-op when
  no ``telemetry_session`` is active, which is the default;
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

Instrumented code binds the session module once
(``from repro.obs import session as obs``) and calls ``obs.span(...)``.
The CLI's ``--telemetry OUT_DIR`` flag opens a session around each
experiment and exports its artifacts — see the README's "Telemetry &
run artifacts" section for the schema.

Import each name from the submodule that owns it. The one re-export,
``telemetry_session``, is held for ``perfbench/workloads/profile_grid.py``,
which imports it from here; it goes when that file is repointed.
"""

from repro.obs.session import telemetry_session

__all__ = ["telemetry_session"]
