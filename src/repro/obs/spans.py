"""Wall-clock span tree: the trace side of the telemetry subsystem.

A :class:`SpanRecorder` hands out context managers that time nested
regions of the pipeline (experiment → sweep → transcode → encode/frame →
simulate/window → schedule/place). Every closed span becomes an immutable
:class:`SpanRecord` carrying its parent linkage, nesting depth, and
free-form attributes, which is exactly the shape the Chrome-trace and
JSONL exporters in :mod:`repro.obs.export` need.

The recorder is deliberately dumb and fast: a monotonic clock read on
enter and exit, one list append on exit. When telemetry is disabled the
instrumented code never reaches this module at all — the
:func:`repro.obs.session.span` front door returns a shared no-op context
manager instead (see that module for the near-zero-overhead contract).

Cross-process tracing: a parent session hands a :class:`TraceContext`
(its ``trace_id`` plus the id of the span that spawned the work) to a
worker process; the worker's session records under that ``trace_id`` and
ships its finished spans back, and the parent's
:meth:`SpanRecorder.adopt` re-parents the worker tree under the spawning
span — with ids remapped into the parent's id space — so the exported
Chrome trace shows one flame graph spanning both processes.
(``perf_counter_ns`` is CLOCK_MONOTONIC-based on Linux, so worker
timestamps share the parent's time axis.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["SpanRecord", "SpanRecorder", "TraceContext", "NULL_SPAN"]


@dataclass(frozen=True)
class TraceContext:
    """The propagated identity of an in-progress trace.

    ``trace_id`` names the end-to-end unit of work (one job, one sweep);
    ``parent_span_id`` is the id — in the *originating* recorder's id
    space — of the span under which remote work should hang.
    """

    trace_id: str
    parent_span_id: int | None = None

    def as_dict(self) -> dict[str, object]:
        """Plain-JSON form (crosses the process boundary via pickle or
        JSON alongside the task payload)."""
        return {"trace_id": self.trace_id,
                "parent_span_id": self.parent_span_id}

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "TraceContext":
        """Inverse of :meth:`as_dict`."""
        parent = payload.get("parent_span_id")
        return cls(
            trace_id=str(payload["trace_id"]),
            parent_span_id=None if parent is None else int(parent),
        )


@dataclass(frozen=True)
class SpanRecord:
    """One completed (closed) span."""

    span_id: int
    parent_id: int | None
    name: str
    start_ns: int
    end_ns: int
    depth: int
    attrs: dict[str, object] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def duration_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    def as_dict(self) -> dict[str, object]:
        """JSON-ready flat representation (JSONL event stream rows)."""
        return {
            "kind": "span",
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "depth": self.depth,
            "attrs": dict(self.attrs),
        }


class _ActiveSpan:
    """Context manager for one open span; records itself on exit."""

    __slots__ = ("_recorder", "name", "attrs", "span_id", "parent_id",
                 "depth", "start_ns")

    def __init__(self, recorder: "SpanRecorder", name: str,
                 attrs: dict[str, object]) -> None:
        self._recorder = recorder
        self.name = name
        self.attrs = attrs

    def set(self, **attrs: object) -> None:
        """Attach attributes discovered after the span opened."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_ActiveSpan":
        rec = self._recorder
        self.span_id = rec._next_id
        rec._next_id += 1
        stack = rec._stack
        self.parent_id = stack[-1] if stack else None
        self.depth = len(stack)
        stack.append(self.span_id)
        self.start_ns = rec._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        rec = self._recorder
        end_ns = rec._clock()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        rec._stack.pop()
        rec.finished.append(
            SpanRecord(
                span_id=self.span_id,
                parent_id=self.parent_id,
                name=self.name,
                start_ns=self.start_ns,
                end_ns=end_ns,
                depth=self.depth,
                attrs=self.attrs,
            )
        )
        return False


class _NullSpan:
    """Shared do-nothing span used when telemetry is disabled."""

    __slots__ = ()

    def set(self, **attrs: object) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class SpanRecorder:
    """Collects a session's span tree.

    Parameters
    ----------
    clock:
        Nanosecond monotonic clock; injectable so tests can assert exact
        durations.
    """

    def __init__(self, *, clock=time.perf_counter_ns) -> None:
        self._clock = clock
        self._next_id = 1
        self._stack: list[int] = []
        self.finished: list[SpanRecord] = []

    def span(self, name: str, **attrs: object) -> _ActiveSpan:
        """Open a nested span; use as a context manager."""
        return _ActiveSpan(self, name, attrs)

    # ------------------------------------------------------------------
    def roots(self) -> list[SpanRecord]:
        return [s for s in self.finished if s.parent_id is None]

    def by_name(self) -> dict[str, list[SpanRecord]]:
        out: dict[str, list[SpanRecord]] = {}
        for s in self.finished:
            out.setdefault(s.name, []).append(s)
        return out

    def totals(self) -> dict[str, dict[str, float]]:
        """Per-span-name call counts and total self-inclusive seconds."""
        out: dict[str, dict[str, float]] = {}
        for s in self.finished:
            agg = out.setdefault(s.name, {"calls": 0.0, "total_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += s.duration_s
        return out

    @property
    def open_span_id(self) -> int | None:
        """Id of the innermost currently open span, or ``None``."""
        return self._stack[-1] if self._stack else None

    def adopt(
        self,
        records: list[dict[str, object]],
        *,
        parent_id: int | None = None,
        extra_attrs: dict[str, object] | None = None,
    ) -> int:
        """Graft a foreign span forest (``SpanRecord.as_dict`` rows from
        another recorder, typically a worker process) into this tree.

        Foreign ids are remapped into this recorder's id space, roots are
        re-parented under ``parent_id`` (default: the innermost open
        span), and depths are shifted accordingly, so the adopted spans
        are indistinguishable from locally recorded ones in every export.
        ``extra_attrs`` is merged into each adopted span's attributes
        (e.g. the worker's trace id). Returns the number of spans
        adopted.
        """
        if not records:
            return 0
        if parent_id is None:
            parent_id = self.open_span_id
        base_depth = (len(self._stack) if parent_id == self.open_span_id
                      else 0)
        if parent_id is not None and parent_id != self.open_span_id:
            by_id = {s.span_id: s for s in self.finished}
            anchor = by_id.get(parent_id)
            base_depth = anchor.depth + 1 if anchor is not None else 0
        id_map: dict[int, int] = {}
        # Parents get ids at __enter__, before their children, so sorting
        # by foreign id maps every parent before its children.
        for row in sorted(records, key=lambda r: int(r["span_id"])):  # type: ignore[arg-type]
            new_id = self._next_id
            self._next_id += 1
            foreign_id = int(row["span_id"])  # type: ignore[arg-type]
            id_map[foreign_id] = new_id
            foreign_parent = row.get("parent_id")
            if foreign_parent is None:
                mapped_parent: int | None = parent_id
                depth = base_depth
            else:
                mapped_parent = id_map.get(int(foreign_parent))  # type: ignore[arg-type]
                if mapped_parent is None:  # orphan: hang it off the root
                    mapped_parent = parent_id
                    depth = base_depth
                else:
                    depth = int(row.get("depth", 0)) + base_depth  # type: ignore[arg-type]
            attrs = dict(row.get("attrs") or {})  # type: ignore[arg-type]
            if extra_attrs:
                attrs.update(extra_attrs)
            self.finished.append(
                SpanRecord(
                    span_id=new_id,
                    parent_id=mapped_parent,
                    name=str(row["name"]),
                    start_ns=int(row["start_ns"]),  # type: ignore[arg-type]
                    end_ns=int(row["end_ns"]),  # type: ignore[arg-type]
                    depth=depth,
                    attrs=attrs,
                )
            )
        return len(id_map)

    def clear(self) -> None:
        self.finished.clear()
        self._stack.clear()
