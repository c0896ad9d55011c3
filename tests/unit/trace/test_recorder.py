"""Unit tests for repro.trace.recorder and repro.trace.kernels."""

import numpy as np
import pytest

from repro.trace.events import BranchEvent, CallBatch, KernelEvent, MemoryEvent
from repro.trace.kernels import KERNELS, build_program
from repro.trace.recorder import AddressMap, NullTracer, RecordingTracer


class TestKernelCatalog:
    def test_catalog_nonempty(self):
        assert len(KERNELS) >= 15

    def test_expected_kernels_present(self):
        for name in ("me_sad", "dct4", "quant", "trellis", "entropy_coeff",
                     "deblock", "mode_decide", "intra_pred16"):
            assert name in KERNELS

    def test_all_kernels_have_positive_footprints(self):
        for k in KERNELS.values():
            assert k.hot_lines > 0
            assert k.cold_lines >= 0
            assert k.instr_mix.total > 0 or k.call_overhead.total > 0

    def test_tileable_kernels_marked(self):
        assert KERNELS["dct4"].loop_nest.tileable
        assert KERNELS["deblock"].loop_nest.tileable
        assert not KERNELS["me_sad"].loop_nest.tileable

    def test_build_program(self):
        prog = build_program()
        assert set(prog.kernels) == set(KERNELS)


class TestAddressMap:
    def test_alloc_page_aligned(self):
        amap = AddressMap()
        base = amap.alloc("x", 100)
        assert base % 4096 == 0

    def test_realloc_same_name_same_base(self):
        amap = AddressMap()
        a = amap.alloc("x", 100)
        b = amap.alloc("x", 50)
        assert a == b

    def test_realloc_larger_rejected(self):
        amap = AddressMap()
        amap.alloc("x", 100)
        with pytest.raises(ValueError, match="reallocated larger"):
            amap.alloc("x", 100_000)

    def test_regions_disjoint(self):
        amap = AddressMap()
        a = amap.alloc("a", 8192)
        b = amap.alloc("b", 8192)
        assert abs(a - b) >= 8192

    def test_bytes_allocated_grows(self):
        amap = AddressMap()
        before = amap.bytes_allocated
        amap.alloc("a", 4096)
        assert amap.bytes_allocated > before

    def test_zero_byte_alloc_gets_one_page(self):
        amap = AddressMap()
        base = amap.alloc("empty", 0)
        assert base % 4096 == 0
        got_base, size = amap._regions["empty"]
        assert got_base == base
        assert size == 4096  # rounded up to a full page, never zero

    def test_realloc_equal_size_returns_original_base(self):
        amap = AddressMap()
        a = amap.alloc("x", 4096)
        assert amap.alloc("x", 4096) == a
        # Boundary: exactly the recorded (page-rounded) size is accepted...
        _, size = amap._regions["x"]
        assert amap.alloc("x", size) == a
        # ...one byte more is not.
        with pytest.raises(ValueError, match="reallocated larger"):
            amap.alloc("x", size + 1)

    def test_guard_page_between_consecutive_regions(self):
        amap = AddressMap()
        a = amap.alloc("first", 4096)
        b = amap.alloc("second", 4096)
        _, a_size = amap._regions["first"]
        # The second region starts one guard page past the first's end,
        # so no in-bounds address of one region touches the other's page.
        assert b == a + a_size + 4096

    def test_guard_spacing_accumulates(self):
        amap = AddressMap()
        names = [f"r{i}" for i in range(4)]
        for name in names:
            amap.alloc(name, 100)
        bases = [amap._regions[n][0] for n in names]
        for prev, nxt in zip(bases, bases[1:]):
            assert nxt - prev == 4096 + 4096  # one page data + one guard

    @pytest.mark.parametrize("size", [-5, -1, 2.5])
    def test_negative_or_non_integral_size_rejected(self, size):
        """``alloc("x", -5)`` used to hand out a one-page region."""
        with pytest.raises(ValueError, match="'x'"):
            AddressMap().alloc("x", size)


class TestNullTracer:
    def test_noop(self):
        t = NullTracer()
        assert not t.enabled
        t.begin_frame("I", 0)
        t.kernel("anything", iters=5)  # must not raise or record


class TestRecordingTracer:
    def _tracer(self, sample=1):
        return RecordingTracer(build_program(), sample=sample)

    def test_instruction_accounting(self):
        t = self._tracer()
        spec = KERNELS["dct4"]
        t.kernel("dct4", iters=10)
        expected = spec.instr_mix.scaled(10) + spec.call_overhead
        assert t.stream.instr.total == pytest.approx(expected.total)
        assert t.stream.kernel_calls["dct4"] == 1

    def test_events_recorded(self):
        t = self._tracer()
        reads = np.array([100, 164], dtype=np.uint64)
        branches = {"nz": np.array([True, False, True])}
        t.kernel("quant", iters=4, reads=reads, branches=branches)
        kinds = [type(e).__name__ for e in t.stream.events]
        assert "KernelEvent" in kinds
        assert "MemoryEvent" in kinds
        assert "BranchEvent" in kinds
        branch_events = [e for e in t.stream.events if isinstance(e, BranchEvent)]
        assert branch_events[0].site == "quant:nz"
        assert branch_events[0].outcomes.tolist() == [True, False, True]

    def test_unknown_kernel_rejected(self):
        with pytest.raises(KeyError):
            self._tracer().kernel("not_a_kernel")

    def test_negative_iters_rejected(self):
        with pytest.raises(ValueError):
            self._tracer().kernel("dct4", iters=-1)

    @pytest.mark.parametrize("iters", [np.nan, np.inf, -np.inf])
    def test_non_finite_iters_rejected_at_the_call(self, iters):
        """A NaN or infinite count used to be recorded and to surface far
        away, as ``simulate()``'s top-down categories not summing to 100."""
        t = self._tracer()
        with pytest.raises(ValueError, match="'dct4'.*iters"):
            t.kernel("dct4", iters=iters)
        assert t.stream.kernel_calls == {}

    def test_non_finite_iters_reject_a_whole_bulk_append(self):
        t = self._tracer()
        none = np.empty(0, dtype=np.intp)
        batch = CallBatch(
            names=("dct4", "quant"), kernels=np.array([0, 1, 0]),
            iters=np.array([4.0, np.nan, 2.0]),
            read_sizes=np.zeros(3, dtype=np.intp), write_sizes=np.zeros(3, dtype=np.intp),
            addrs=np.empty(0, dtype=np.uint64), tags=(),
            branch_calls=none, branch_tags=none, branch_sizes=none,
            outcomes=np.empty(0, dtype=bool),
        )
        with pytest.raises(ValueError, match="'quant'"):
            t.append(batch)
        assert t.stream.kernel_calls == {} and t.stream.columns.n_events == 0

    @pytest.mark.parametrize(
        "outcomes",
        [np.array([0.2, 0.0, 3.0]), np.array([0, 2, 1]), np.array([1, -1]),
         np.array([True, False], dtype=object)],
    )
    def test_outcomes_that_are_not_bools_rejected_at_the_call(self, outcomes):
        """The cast to bool used to record ``[0.2, 0.0, 3.0]`` as taken,
        not taken, taken."""
        t = self._tracer()
        with pytest.raises(ValueError, match="outcomes"):
            t.kernel("quant", branches={"nz": outcomes})
        assert t.stream.kernel_calls == {}

    def test_zero_one_integer_outcomes_are_bools(self):
        t = self._tracer()
        t.kernel("quant", branches={"nz": np.array([1, 0, 1], dtype=np.uint8)})
        (event,) = [e for e in t.stream.events if isinstance(e, BranchEvent)]
        assert event.outcomes.dtype == bool
        assert event.outcomes.tolist() == [True, False, True]

    def test_negative_addresses_rejected(self):
        t = self._tracer()
        with pytest.raises(ValueError, match="negative address"):
            t.kernel("dct4", reads=np.array([-5]))
        with pytest.raises(ValueError, match="negative address"):
            t.kernel("dct4", writes=np.array([[7, 8], [9, -1]], dtype=np.int64))

    @pytest.mark.parametrize(
        "addrs", [np.array([64.0, 128.0]), np.array([64.0, np.nan]), np.array([True])]
    )
    def test_non_integer_addresses_rejected_at_the_call(self, addrs):
        """A float array would be truncated and a NaN turned into garbage
        by the cast to uint64: refused by ``kernel()`` itself, not when
        the trace is sealed."""
        t = self._tracer()
        with pytest.raises(ValueError, match="must be integers"):
            t.kernel("dct4", reads=addrs)
        with pytest.raises(ValueError, match="must be integers"):
            t.kernel("dct4", writes=addrs)
        assert not [e for e in t.stream.events if isinstance(e, MemoryEvent)]

    def test_integer_dtypes_are_widened_to_uint64(self):
        t = self._tracer()
        t.kernel("dct4", reads=np.array([0, 2**63 + 5], dtype=np.uint64))
        t.kernel("dct4", reads=np.array([5, 6], dtype=np.uint32))
        t.kernel("dct4", reads=np.array([5, 6], dtype=np.int32))
        mem = [e for e in t.stream.events if isinstance(e, MemoryEvent)]
        assert [e.addrs.tolist() for e in mem] == [[0, 2**63 + 5], [5, 6], [5, 6]]
        assert all(e.addrs.dtype == np.uint64 for e in mem)

    def test_two_dimensional_addresses_flatten_in_c_order(self):
        t = self._tracer()
        t.kernel("dct4", writes=np.array([[1, 2], [3, 4]], dtype=np.uint64).T)
        (mem,) = [e for e in t.stream.events if isinstance(e, MemoryEvent)]
        assert mem.addrs.tolist() == [1, 3, 2, 4] and mem.kind == "w"

    def test_sampling_keeps_exact_instructions(self):
        exact = self._tracer(sample=1)
        sampled = self._tracer(sample=4)
        for tr in (exact, sampled):
            for _ in range(8):
                tr.kernel("quant", iters=4, reads=np.array([64], dtype=np.uint64))
        assert exact.stream.instr.total == sampled.stream.instr.total

    def test_sampling_reduces_events_and_weights(self):
        sampled = self._tracer(sample=4)
        for _ in range(8):
            sampled.kernel("quant", iters=4, reads=np.array([64], dtype=np.uint64))
        mem = [e for e in sampled.stream.events if isinstance(e, MemoryEvent)]
        assert len(mem) == 2  # every 4th of 8 invocations
        assert all(e.weight == 4.0 for e in mem)

    def test_invalid_sample_rejected(self):
        with pytest.raises(ValueError):
            self._tracer(sample=0)

    def test_begin_frame_counts(self):
        t = self._tracer()
        t.begin_frame("I", 0)
        t.begin_frame("P", 1)
        assert t.stream.n_frames == 2

    def test_empty_arrays_not_recorded(self):
        t = self._tracer()
        t.kernel("dct4", iters=1, reads=np.array([], dtype=np.uint64))
        t.kernel("dct4", iters=1, writes=[], branches={"nz": np.array([], dtype=bool)})
        assert [type(e) for e in t.stream.events] == [KernelEvent, KernelEvent]

    def test_stream_is_sealed_on_read_and_never_changes_afterwards(self):
        t = self._tracer()
        t.begin_frame("I", 0)
        t.kernel("dct4", iters=2, reads=np.array([64], dtype=np.uint64))
        first = t.stream
        assert t.stream is first  # nothing new: no new seal
        t.flush()
        assert t.stream is first
        t.kernel("quant", iters=1)
        second = t.stream
        assert second is not first
        assert len(first.events) == 2 and first.kernel_calls == {"dct4": 1}
        assert len(second.events) == 3
        assert second.kernel_calls == {"dct4": 1, "quant": 1}
        t.begin_frame("P", 1)
        assert (first.n_frames, second.n_frames, t.stream.n_frames) == (1, 1, 2)

    def test_summary_fields(self):
        t = self._tracer()
        t.kernel("dct4", iters=2)
        stream = t.stream
        assert stream.total_instructions > 0
        assert stream.total_branches == stream.instr.branch
        assert stream.columns.n_events == len(stream.events) == 1
