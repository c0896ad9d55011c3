"""Unit tests for session nesting rules and cross-process trace merge."""

import pytest

from repro.obs import session as obs
from repro.obs.session import NestedSessionError
from repro.obs.spans import SpanRecorder, TraceContext


class TestNestedSessions:
    def test_nested_entry_raises(self):
        with obs.telemetry_session():
            with pytest.raises(NestedSessionError) as err:
                with obs.telemetry_session():
                    pass  # pragma: no cover - never reached
            # The message must tell the caller how to recover.
            assert "reset_for_subprocess" in str(err.value)
        assert obs.current() is None

    def test_slot_restored_after_nested_failure(self):
        with obs.telemetry_session() as tel:
            with pytest.raises(NestedSessionError):
                with obs.telemetry_session():
                    pass  # pragma: no cover
            assert obs.current() is tel
        assert obs.current() is None

    def test_reset_for_subprocess_clears_inherited_slot(self):
        with obs.telemetry_session():
            obs.reset_for_subprocess()
            assert obs.current() is None
            with obs.telemetry_session():
                pass
        assert obs.current() is None


class TestTraceContext:
    def test_round_trip(self):
        ctx = TraceContext(trace_id="abc", parent_span_id=7)
        assert TraceContext.from_dict(ctx.as_dict()) == ctx

    def test_current_trace_context_tracks_open_span(self):
        assert obs.current_trace_context() is None
        with obs.telemetry_session() as tel:
            ctx = obs.current_trace_context()
            assert ctx.trace_id == tel.trace_id
            assert ctx.parent_span_id is None
            with obs.span("outer"):
                inner = obs.current_trace_context()
                assert inner.parent_span_id == tel.spans.open_span_id

    def test_session_inherits_context_trace_id(self):
        ctx = TraceContext(trace_id="deadbeef", parent_span_id=3)
        with obs.telemetry_session(ctx) as tel:
            assert tel.trace_id == "deadbeef"


class TestMergeWorkerState:
    def _worker_state(self):
        """Simulate a worker session: one root span with a child."""
        with obs.telemetry_session(TraceContext("worker-trace")) as tel:
            tel.metrics.counter("worker.jobs").inc()
            with tel.spans.span("task"):
                with tel.spans.span("encode"):
                    pass
            return tel.export_state()

    def test_spans_reparented_under_open_span(self):
        state = self._worker_state()
        with obs.telemetry_session() as tel:
            with obs.span("fan_out") as sp:
                obs.merge_worker_state(state)
            fan_out_id = sp.span_id
        by_name = {s.name: s for s in tel.spans.finished}
        assert by_name["task"].parent_id == fan_out_id
        assert by_name["encode"].parent_id == by_name["task"].span_id
        assert by_name["task"].depth == 1
        assert by_name["encode"].depth == 2
        # Foreign spans are tagged with the trace they came from.
        assert by_name["task"].attrs["trace"] == "worker-trace"
        assert tel.metrics.as_dict()["worker.jobs"] == 1

    def test_adopt_remaps_ids_into_local_space(self):
        state = self._worker_state()
        rec = SpanRecorder()
        with rec.span("local"):
            pass
        adopted = rec.adopt(list(state["spans"]))
        assert adopted == 2
        ids = [s.span_id for s in rec.finished]
        assert len(ids) == len(set(ids))     # no collisions

    def test_merge_disabled_is_noop(self):
        obs.merge_worker_state(self._worker_state())  # no session: no-op
