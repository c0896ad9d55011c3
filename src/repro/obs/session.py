"""The telemetry session: one global slot, cheap front-door helpers.

Instrumented code throughout the pipeline calls the module-level helpers
(:func:`span`, :func:`inc`, :func:`observe`, :func:`set_gauge`) without
caring whether telemetry is on. The contract is:

- **disabled (default)**: no session is installed; every helper is a
  single attribute load plus a ``None`` check and returns immediately
  (``span`` returns a shared no-op context manager). Nothing is
  allocated beyond the kwargs dict at the call site, which is why the
  instrumentation sits at frame/window/task granularity rather than
  per-macroblock.
- **enabled**: :func:`telemetry_session` installs a :class:`Telemetry`
  (span recorder + metrics registry) for the duration of a ``with``
  block, and the helpers route into it.

The slot is process-global and **sessions do not nest**: experiments are
run one at a time by the CLI, and the one-run-one-artifact model is what
makes ``run.json`` comparable across invocations. A nested
``telemetry_session()`` entry raises :class:`NestedSessionError` rather
than silently shadowing (and discarding) the active session's state;
callers that can run either standalone or inside a larger session reuse
:func:`current` (see ``repro.api.facade.serve``).

Cross-process flow: a parent session exposes its identity via
:func:`current_trace_context`; a worker process clears the inherited
slot (:func:`reset_for_subprocess`), opens its own session *under that
context*, and ships ``Telemetry.export_state()`` back with its results.
The parent folds the whole thing — metrics *and* the worker's span tree,
re-parented under the span that spawned the work — with
:func:`merge_worker_state`.
"""

from __future__ import annotations

import uuid
from contextlib import contextmanager

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import NULL_SPAN, SpanRecorder, TraceContext

__all__ = [
    "NestedSessionError",
    "Telemetry",
    "telemetry_session",
    "current",
    "current_trace_context",
    "enabled",
    "span",
    "inc",
    "observe",
    "set_gauge",
    "merge_worker_state",
    "reset_for_subprocess",
]


class NestedSessionError(RuntimeError):
    """Raised when ``telemetry_session()`` is entered while another
    session is active — sessions are process-global and do not nest."""


class Telemetry:
    """One session's telemetry state: span tree + metrics registry."""

    def __init__(self, context: TraceContext | None = None) -> None:
        self.spans = SpanRecorder()
        self.metrics = MetricsRegistry()
        self.meta: dict[str, object] = {}
        self.context = context
        self.trace_id = (context.trace_id if context is not None
                         else uuid.uuid4().hex[:16])

    def export_state(self) -> dict[str, object]:
        """Everything a worker ships back to its parent session: the
        metrics registry state, the finished span tree, and the trace id
        the spans were recorded under (JSON- and pickle-safe)."""
        return {
            "trace_id": self.trace_id,
            "metrics": self.metrics.export_state(),
            "spans": [s.as_dict() for s in self.spans.finished],
        }


_current: Telemetry | None = None


def current() -> Telemetry | None:
    """The installed session, or ``None`` when telemetry is disabled."""
    return _current


def enabled() -> bool:
    return _current is not None


def current_trace_context() -> TraceContext | None:
    """The active session's propagatable identity: its trace id plus the
    innermost open span, ready to hand to a worker process. ``None``
    when telemetry is disabled."""
    tel = _current
    if tel is None:
        return None
    return TraceContext(
        trace_id=tel.trace_id,
        parent_span_id=tel.spans.open_span_id,
    )


@contextmanager
def telemetry_session(context: TraceContext | None = None):
    """Install a fresh :class:`Telemetry` for the duration of the block.

    ``context``, when given, threads a parent process's trace identity
    into this session (worker-side use; see
    :func:`current_trace_context`). Raises :class:`NestedSessionError`
    on nested entry — sessions do not nest, and silently replacing the
    active session would discard its spans and metrics.
    """
    global _current
    if _current is not None:
        raise NestedSessionError(
            "telemetry sessions do not nest: a session is already active "
            "in this process. Reuse it via repro.obs.session.current(), or — in a "
            "worker process that inherited the parent's slot across fork "
            "— call reset_for_subprocess() first."
        )
    tel = Telemetry(context)
    _current = tel
    try:
        yield tel
    finally:
        _current = None


# ----------------------------------------------------------------------
# Front-door helpers (the only API instrumented modules should use).
# ----------------------------------------------------------------------

def span(name: str, **attrs: object):
    """Open a nested wall-clock span (no-op context manager if disabled)."""
    tel = _current
    if tel is None:
        return NULL_SPAN
    return tel.spans.span(name, **attrs)


def inc(name: str, n: float = 1.0,
        labels: dict[str, str] | None = None) -> None:
    """Increment counter ``name`` (no-op if disabled)."""
    tel = _current
    if tel is not None:
        tel.metrics.counter(name, labels).inc(n)


def observe(name: str, value: float, *,
            labels: dict[str, str] | None = None,
            bounds: tuple[float, ...] | None = None) -> None:
    """Record ``value`` into histogram ``name`` (no-op if disabled)."""
    tel = _current
    if tel is not None:
        tel.metrics.histogram(name, bounds, labels).observe(value)


def set_gauge(name: str, value: float,
              labels: dict[str, str] | None = None) -> None:
    """Set gauge ``name`` (no-op if disabled)."""
    tel = _current
    if tel is not None:
        tel.metrics.gauge(name, labels).set(value)


def merge_worker_state(state: dict[str, object] | None) -> None:
    """Fold a worker's full :meth:`Telemetry.export_state` payload —
    metrics *and* span tree — into the active session.

    The worker's spans are re-parented under the innermost span open
    *right now* (for the sweep engine that is the ``parallel.fan_out``
    span active at merge time) with ids remapped into this session's id
    space, so the Chrome-trace export shows one flame graph spanning
    submit → worker compute across the process boundary. Each adopted
    span is tagged with the worker's ``trace`` id so per-trace timelines
    can be filtered back out. No-op if disabled or ``state`` is empty.
    """
    tel = _current
    if tel is None or not state:
        return
    metrics = state.get("metrics")
    if metrics:
        tel.metrics.merge_state(metrics)  # type: ignore[arg-type]
    spans = state.get("spans")
    if spans:
        extra = {}
        trace_id = state.get("trace_id")
        if trace_id and trace_id != tel.trace_id:
            extra["trace"] = trace_id
        tel.spans.adopt(list(spans), extra_attrs=extra or None)  # type: ignore[arg-type]


def reset_for_subprocess() -> None:
    """Drop a session inherited across ``fork``.

    Worker processes spawned while a session is active inherit the
    parent's ``_current`` slot; they must clear it before opening their
    own session (sessions do not nest — see :class:`NestedSessionError` —
    and the inherited object's state would be discarded at worker exit
    anyway).
    """
    global _current
    _current = None
