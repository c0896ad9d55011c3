"""Unit tests for repro.trace.program."""

import numpy as np
import pytest

from repro.trace.program import (
    CACHE_LINE,
    CODE_BASE,
    CodeLayout,
    InstrMix,
    Kernel,
    LoopNest,
    Program,
    default_layout,
)


def _kernel(name, hot=4, cold=2, **mix):
    return Kernel(
        name=name,
        instr_mix=InstrMix(**(mix or {"alu": 5, "load": 2, "branch": 1})),
        call_overhead=InstrMix(alu=2),
        hot_lines=hot,
        cold_lines=cold,
    )


class TestInstrMix:
    def test_total(self):
        mix = InstrMix(alu=3, mul=1, load=2, store=1, branch=1)
        assert mix.total == 8

    def test_scaled(self):
        mix = InstrMix(alu=4, load=2).scaled(2.5)
        assert mix.alu == 10 and mix.load == 5

    def test_add(self):
        a = InstrMix(alu=1, branch=2)
        b = InstrMix(alu=3, store=1)
        c = a + b
        assert c.alu == 4 and c.branch == 2 and c.store == 1


class TestDefaultLayout:
    def test_fetch_covers_full_extent(self):
        kernels = {"a": _kernel("a", hot=4, cold=4)}
        layout = default_layout(kernels)
        # Interleaved layout: the fetch footprint is hot + cold.
        assert len(layout.fetch_line_addrs["a"]) == 8
        assert len(layout.hot_line_addrs["a"]) == 4
        assert len(layout.cold_line_addrs["a"]) == 4

    def test_addresses_are_cache_line_aligned(self):
        layout = default_layout({"a": _kernel("a"), "b": _kernel("b")})
        for addrs in layout.fetch_line_addrs.values():
            assert np.all(addrs % CACHE_LINE == 0)
            assert np.all(addrs >= CODE_BASE)

    def test_kernels_do_not_overlap(self):
        layout = default_layout({"a": _kernel("a"), "b": _kernel("b")})
        a = set(layout.fetch_line_addrs["a"].tolist())
        b = set(layout.fetch_line_addrs["b"].tolist())
        assert not (a & b)

    def test_total_lines(self):
        kernels = {"a": _kernel("a", hot=3, cold=1), "b": _kernel("b", hot=2, cold=2)}
        layout = default_layout(kernels)
        assert layout.total_lines == 8

    def test_no_branch_hints_by_default(self):
        layout = default_layout({"a": _kernel("a")})
        assert layout.branch_hints is False

    def test_fetch_footprint_lines(self):
        layout = default_layout({"a": _kernel("a", hot=3, cold=2)})
        assert layout.fetch_footprint_lines() == 5

    def test_hot_only_kernel(self):
        layout = default_layout({"a": _kernel("a", hot=5, cold=0)})
        assert len(layout.hot_line_addrs["a"]) == 5
        assert len(layout.cold_line_addrs["a"]) == 0


class TestProgram:
    def test_kernel_lookup(self):
        prog = Program({"a": _kernel("a")})
        assert prog.kernel("a").name == "a"
        with pytest.raises(KeyError, match="unknown kernel"):
            prog.kernel("zzz")

    def test_requires_kernels(self):
        with pytest.raises(ValueError):
            Program({})

    def test_with_layout_replaces(self):
        prog = Program({"a": _kernel("a")})
        new_layout = CodeLayout(
            hot_line_addrs={"a": np.array([0])},
            cold_line_addrs={"a": np.array([], dtype=np.int64)},
            fetch_line_addrs={"a": np.array([0])},
            total_lines=1,
            description="custom",
        )
        new = prog.with_layout(new_layout)
        assert new.layout.description == "custom"
        assert prog.layout.description != "custom"

    def test_loop_nest_defaults(self):
        k = _kernel("a")
        assert k.loop_nest == LoopNest()
        assert not k.loop_nest.tileable
