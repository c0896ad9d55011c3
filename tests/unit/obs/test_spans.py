"""Unit tests for repro.obs.spans and the session front door."""

import pytest

from repro.obs import session as obs
from repro.obs.spans import NULL_SPAN, SpanRecorder


class FakeClock:
    """Deterministic nanosecond clock: each read advances by `step_ns`."""

    def __init__(self, step_ns: int = 1000) -> None:
        self.now = 0
        self.step_ns = step_ns

    def __call__(self) -> int:
        self.now += self.step_ns
        return self.now


class TestSpanRecorder:
    def test_single_span_timing(self):
        rec = SpanRecorder(clock=FakeClock(step_ns=500))
        with rec.span("root"):
            pass
        (s,) = rec.finished
        assert s.name == "root"
        assert s.duration_ns == 500
        assert s.duration_s == pytest.approx(5e-7)
        assert s.parent_id is None
        assert s.depth == 0

    def test_nesting_links_parent_and_depth(self):
        rec = SpanRecorder()
        with rec.span("a") as a:
            with rec.span("b") as b:
                with rec.span("c"):
                    pass
            with rec.span("d"):
                pass
        by_name = {s.name: s for s in rec.finished}
        assert by_name["a"].parent_id is None
        assert by_name["b"].parent_id == a.span_id
        assert by_name["c"].parent_id == b.span_id
        assert by_name["d"].parent_id == a.span_id
        assert by_name["a"].depth == 0
        assert by_name["b"].depth == 1
        assert by_name["c"].depth == 2
        # Children close before parents.
        names_in_close_order = [s.name for s in rec.finished]
        assert names_in_close_order == ["c", "b", "d", "a"]

    def test_child_interval_contained_in_parent(self):
        rec = SpanRecorder(clock=FakeClock())
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        by_name = {s.name: s for s in rec.finished}
        assert by_name["outer"].start_ns < by_name["inner"].start_ns
        assert by_name["inner"].end_ns < by_name["outer"].end_ns

    def test_attrs_and_late_set(self):
        rec = SpanRecorder()
        with rec.span("s", crf=23) as sp:
            sp.set(bits=100)
        (s,) = rec.finished
        assert s.attrs == {"crf": 23, "bits": 100}

    def test_exception_marks_error_and_propagates(self):
        rec = SpanRecorder()
        with pytest.raises(ValueError):
            with rec.span("boom"):
                raise ValueError("x")
        (s,) = rec.finished
        assert s.attrs["error"] == "ValueError"

    def test_totals_aggregation(self):
        rec = SpanRecorder(clock=FakeClock(step_ns=1000))
        for _ in range(3):
            with rec.span("k"):
                pass
        totals = rec.totals()
        assert totals["k"]["calls"] == 3
        assert totals["k"]["total_s"] == pytest.approx(3e-6)

    def test_roots(self):
        rec = SpanRecorder()
        with rec.span("r1"):
            with rec.span("c"):
                pass
        with rec.span("r2"):
            pass
        assert [s.name for s in rec.roots()] == ["r1", "r2"]


class TestSessionFrontDoor:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert obs.current() is None
        assert obs.span("anything", k=1) is NULL_SPAN
        # All helpers are silent no-ops without a session.
        obs.inc("c")
        obs.observe("h", 1.0)
        obs.set_gauge("g", 2.0)

    def test_null_span_contextmanager(self):
        with obs.span("off") as sp:
            sp.set(extra=1)  # must not raise

    def test_session_routes_helpers(self):
        with obs.telemetry_session() as tel:
            assert obs.enabled()
            with obs.span("work", kind="test"):
                obs.inc("jobs", 2)
                obs.observe("latency", 0.5)
                obs.set_gauge("depth", 7)
        assert not obs.enabled()
        assert [s.name for s in tel.spans.finished] == ["work"]
        assert tel.metrics.counter("jobs").value == 2
        assert tel.metrics.gauge("depth").value == 7
        assert tel.metrics.histogram("latency").count == 1

    def test_sessions_do_not_nest(self):
        with obs.telemetry_session():
            with pytest.raises(RuntimeError):
                with obs.telemetry_session():
                    pass

    def test_session_uninstalls_on_error(self):
        with pytest.raises(RuntimeError, match="boom"):
            with obs.telemetry_session():
                raise RuntimeError("boom")
        assert not obs.enabled()
