"""Unit tests for repro.trace.events."""

import numpy as np
import pytest

from repro.trace.events import (
    BranchEvent,
    KernelEvent,
    MemoryEvent,
    TraceStream,
)
from repro.trace.program import InstrMix
from tests.oracles import columns_from_events


def _addrs(*values):
    return np.array(values, dtype=np.uint64)


def _stream(events, **totals):
    """A stream over a hand-built event list; ``totals`` are the exact
    counters (``instr=...``, ``n_frames=...``), which no event implies."""
    return TraceStream(columns_from_events(events), **totals)


class TestMemoryEvent:
    def test_valid_kinds(self):
        for kind in ("r", "w"):
            MemoryEvent("k", _addrs(0), kind)

    def test_invalid_kind_rejected(self):
        """Instruction fetches are not events: no producer emits ``"i"``."""
        for kind in ("x", "i"):
            with pytest.raises(ValueError, match="kind"):
                MemoryEvent("k", _addrs(0), kind)


class TestTraceStream:
    def test_instruction_totals_accumulate(self):
        a = InstrMix(alu=10, load=5, branch=2)
        b = InstrMix(mul=4, store=1)
        stream = TraceStream(instr=a + a + b, instr_by_kernel={"a": a + a, "b": b})
        assert stream.total_instructions == 39
        assert stream.total_branches == 4
        assert stream.instr_by_kernel["a"].alu == 20
        assert stream.instr_by_kernel["b"].mul == 4

    def test_summary_contents(self):
        stream = _stream(
            [KernelEvent("a", 1.0)], instr=InstrMix(alu=1, branch=1), n_frames=2
        )
        assert stream.total_instructions == 2
        assert stream.columns.n_events == 1
        assert stream.n_frames == 2

    def test_events_keep_their_order(self):
        k = KernelEvent("a", 1.5, 2.0)
        m = MemoryEvent("a", _addrs(0, 64), "w", 0.5)
        b = BranchEvent("a:s", np.array([True, False]), 3.0)
        events = _stream([m, k, b, k]).events
        assert [type(e) for e in events] == [
            MemoryEvent, KernelEvent, BranchEvent, KernelEvent
        ]
        assert events[1] == k and events[3] == k
        assert (events[0].kernel, events[0].kind, events[0].weight) == ("a", "w", 0.5)
        assert events[0].addrs.tolist() == [0, 64]
        assert events[0].addrs.dtype == np.uint64
        assert (events[2].site, events[2].weight) == ("a:s", 3.0)
        assert events[2].outcomes.tolist() == [True, False]
        assert events[2].outcomes.dtype == bool

    def test_empty_stream(self):
        stream = TraceStream()
        assert stream.total_instructions == 0
        assert stream.events == ()
        assert stream.columns.n_events == 0
        assert list(stream.columns.windows(8)) == []

    def test_not_an_event_rejected(self):
        with pytest.raises(TypeError, match="not a trace event"):
            _stream([KernelEvent("a", 1.0), ("a", 1.0)])

    @pytest.mark.parametrize("addrs", [np.array([4, -1]), np.array([4.0]), np.array([np.nan])])
    def test_bad_addresses_rejected(self, addrs):
        with pytest.raises(ValueError, match="address"):
            _stream([MemoryEvent("a", addrs, "r")])

    @pytest.mark.parametrize(
        "outcomes", [np.array([0.5, 1.0]), np.array([2, 0]), np.array([-1])]
    )
    def test_bad_outcomes_rejected(self, outcomes):
        with pytest.raises(ValueError, match="outcomes"):
            _stream([BranchEvent("a:s", outcomes)])

    def test_a_sealed_trace_takes_no_more_events(self):
        """The events view is a tuple and every column is read-only, so a
        cached view can never describe an older trace."""
        stream = _stream(
            [KernelEvent("a", 1.0), MemoryEvent("a", _addrs(0, 1), "r")]
        )
        with pytest.raises(AttributeError):
            stream.events.append(KernelEvent("a", 1.0))
        with pytest.raises(ValueError, match="read-only"):
            stream.columns.mem_addrs[0] = 7
        with pytest.raises(ValueError, match="read-only"):
            stream.events[1].addrs[0] = 7
        with pytest.raises(ValueError, match="read-only"):
            stream.columns.data_lines(6).lines[0] = 7


class TestTraceColumns:
    def _columns(self):
        return columns_from_events(
            [
                KernelEvent("a", 4.0),
                MemoryEvent("a", _addrs(0, 8, 64, 65, 0), "r", 2.0),
                BranchEvent("a:s", np.array([True, False])),
                KernelEvent("b", 1.0),
                MemoryEvent("b", _addrs(), "w"),
                MemoryEvent("b", _addrs(128, 128), "w"),
                BranchEvent("b:t", np.array([False])),
                KernelEvent("a", 2.0),
                BranchEvent("a:s", np.array([True]), 3.0),
            ]
        )

    def test_layout(self):
        c = self._columns()
        assert c.kernel_names == ("a", "b") and c.site_names == ("a:s", "b:t")
        assert (c.n_kernel, c.n_memory, c.n_branch, c.n_events) == (3, 3, 3, 9)
        assert c.kernel_ids.tolist() == [0, 1, 0]
        assert c.kernel_pos.tolist() == [0, 3, 7]
        assert c.mem_offsets.tolist() == [0, 5, 5, 7]
        assert c.mem_is_load.tolist() == [True, False, False]
        assert c.mem_pos.tolist() == [1, 4, 5]
        assert c.branch_offsets.tolist() == [0, 2, 3, 4]
        assert c.branch_sites.tolist() == [0, 1, 0]
        assert c.mem_addrs.dtype == np.uint64 and c.branch_outcomes.dtype == bool
        assert c.kernel_iters.dtype == c.mem_weights.dtype == np.float64

    def test_data_lines_collapse_within_an_event_only(self):
        lines, offsets = self._columns().data_lines(6)
        # 0, 8 -> line 0 once; 64, 65 -> line 1 once; the closing 0 stays;
        # the empty event keeps nothing; 128, 128 -> line 2 once.
        assert lines.tolist() == [0, 1, 0, 2]
        assert offsets.tolist() == [0, 3, 3, 4]
        assert self._columns().data_lines(3).lines.tolist() == [0, 1, 8, 0, 16]

    @pytest.mark.parametrize(
        "bound, expected",
        [
            # (events, first memory event, one past the last, addresses)
            (1, [(2, 0, 1, 5), (4, 1, 3, 2), (3, 3, 3, 0)]),
            (5, [(2, 0, 1, 5), (7, 1, 3, 2)]),
            (6, [(6, 0, 3, 7), (3, 3, 3, 0)]),
            (8, [(9, 0, 3, 7)]),
        ],
    )
    def test_windows_close_behind_the_event_reaching_the_bound(self, bound, expected):
        assert [tuple(w) for w in self._columns().windows(bound)] == expected

    def test_window_bound_must_be_positive(self):
        with pytest.raises(ValueError, match="bound"):
            list(self._columns().windows(0))

    def test_kernel_reuse_gaps(self):
        reuse = self._columns().kernel_reuse((10.0, 4.0))
        assert reuse.first.tolist() == [True, True, False]
        # "a" runs again after "b" alone: 4 units of other code in between.
        assert reuse.gaps[reuse.inverse[2]] == 4.0

    def test_site_outcomes_in_order_of_first_appearance(self):
        (s0, o0, w0), (s1, o1, w1) = self._columns().site_outcomes
        assert (s0, o0.tolist(), w0) == ("a:s", [True, False, True], 2.0)
        assert (s1, o1.tolist(), w1) == ("b:t", [False], 1.0)
