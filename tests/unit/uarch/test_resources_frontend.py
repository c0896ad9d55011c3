"""Unit tests for repro.uarch.resources, frontend, icache, topdown, core."""

import pytest

from repro.trace.events import KernelEvent, TraceStream
from repro.trace.kernels import build_program
from repro.trace.program import InstrMix
from repro.uarch.branch import BranchStats
from repro.uarch.config import MicroarchConfig
from repro.uarch.configs import baseline_config, config_by_name
from repro.uarch.core import run_core_model
from repro.uarch.frontend import FrontendStalls, compute_frontend_stalls, mite_instruction_fraction
from repro.uarch.icache import AnalyticICache, ICacheStats
from repro.uarch.resources import MissProfile, achievable_mlp, compute_resource_stalls
from repro.uarch.topdown import TopdownBreakdown
from tests.oracles import columns_from_events


class TestResourceStalls:
    def _profile(self, **kw):
        return MissProfile(**kw)

    def test_no_misses_no_stalls(self):
        stalls = compute_resource_stalls(self._profile(), baseline_config())
        assert stalls.rob == 0 and stalls.rs == 0 and stalls.sb == 0

    def test_memory_misses_stall_rob(self):
        profile = self._profile(load_l1=1000, load_l2=1000, load_l3=1000, load_mem=1000)
        stalls = compute_resource_stalls(profile, baseline_config())
        assert stalls.rob > 0

    def test_bigger_rob_fewer_stalls(self):
        profile = self._profile(load_l1=1000, load_l2=500, load_l3=100, load_mem=50)
        base = compute_resource_stalls(profile, baseline_config())
        big = compute_resource_stalls(profile, config_by_name("be_op2"))
        assert big.rob < base.rob

    def test_issue_at_dispatch_cuts_rs_stalls(self):
        profile = self._profile(load_l1=1000, load_l2=800, load_l3=400, load_mem=200)
        base = compute_resource_stalls(profile, baseline_config())
        fast = compute_resource_stalls(
            profile, baseline_config().with_updates(issue_at_dispatch=True)
        )
        assert fast.rs < base.rs

    def test_store_misses_stall_sb(self):
        profile = self._profile(store_l1=1000, store_l2=1000, store_l3=500, store_mem=500)
        stalls = compute_resource_stalls(profile, baseline_config())
        assert stalls.sb > 0

    def test_any_dominated_by_rob(self):
        profile = self._profile(load_l1=500, load_l2=400, load_l3=300, load_mem=200)
        stalls = compute_resource_stalls(profile, baseline_config())
        assert stalls.any >= stalls.rob

    def test_l4_absorbs_latency(self):
        profile = self._profile(load_l1=1000, load_l2=1000, load_l3=1000, load_mem=0)
        base = compute_resource_stalls(profile, baseline_config())
        # be_op1 has an L4: the 1000 L3 misses hit L4 at 60 instead of 160.
        profile_l4 = self._profile(
            load_l1=1000, load_l2=1000, load_l3=1000, load_l4=0, load_mem=0
        )
        with_l4 = compute_resource_stalls(profile_l4, config_by_name("be_op1"))
        assert with_l4.rob < base.rob

    def test_achievable_mlp_scales_with_rob(self):
        assert achievable_mlp(32) == 1.0
        assert achievable_mlp(128) == 4.0
        assert achievable_mlp(10_000) == 10.0


class TestAnalyticICache:
    def _icache(self, l1_lines=512, itlb=128):
        return AnalyticICache(
            build_program(),
            l1i_lines=l1_lines,
            l2i_lines=4096,
            l3i_lines=131072,
            itlb_entries=itlb,
        )

    @staticmethod
    def _run(icache, kernels, weight=1.0):
        """The stats after invoking ``kernels`` in order."""
        return icache.run(
            columns_from_events([KernelEvent(k, 1.0, weight) for k in kernels])
        )

    def test_first_invocation_compulsory(self):
        assert self._run(self._icache(), ["me_sad"]).l1i_misses > 0

    def test_no_invocations_no_misses(self):
        assert self._run(self._icache(), []) == ICacheStats()

    def test_back_to_back_reuse_cheap(self):
        after_first = self._run(self._icache(), ["me_sad"]).l1i_misses
        # zero intervening code
        after_second = self._run(self._icache(), ["me_sad", "me_sad"]).l1i_misses
        assert after_second == pytest.approx(after_first)

    def test_interleaving_causes_misses(self):
        ic = self._icache(l1_lines=64)  # small L1i
        between = ["me_sad", "dct4", "quant", "idct4", "entropy_coeff", "trellis"]
        before = self._run(ic, between).l1i_misses
        # much intervening code
        assert self._run(ic, [*between, "me_sad"]).l1i_misses > before

    def test_bigger_l1i_fewer_misses(self):
        def run(lines):
            loop = ["me_sad", "dct4", "quant", "entropy_coeff", "deblock"] * 20
            return self._run(self._icache(l1_lines=lines), loop).l1i_misses

        assert run(1024) < run(64)

    def test_l2i_sees_fewer_misses_than_l1i(self):
        loop = ["me_sad", "dct4", "quant", "entropy_coeff", "deblock"] * 10
        stats = self._run(self._icache(l1_lines=64), loop)
        assert stats.l2i_misses <= stats.l1i_misses
        assert stats.l3i_misses <= stats.l2i_misses

    def test_weight_scales(self):
        a = self._run(self._icache(), ["dct4"], weight=1.0)
        b = self._run(self._icache(), ["dct4"], weight=3.0)
        assert b.l1i_misses == pytest.approx(3 * a.l1i_misses)

    def test_itlb_misses_counted(self):
        loop = ["me_sad", "trellis", "entropy_coeff", "mode_decide", "deblock"] * 5
        assert self._run(self._icache(itlb=4), loop).itlb_misses > 0

    def test_unknown_kernel_rejected(self):
        with pytest.raises(KeyError):
            self._run(self._icache(), ["not_a_kernel"])


class TestFrontend:
    def _stream(self):
        mix = InstrMix(alu=6000, load=4000, branch=1000)
        return TraceStream(instr=mix, instr_by_kernel={"me_sad": mix})

    def test_icache_misses_cost_cycles(self):
        prog = build_program()
        stalls = compute_frontend_stalls(
            stream=self._stream(), program=prog, config=baseline_config(),
            l1i_misses=100, l2i_misses=10, l3i_misses=0, itlb_misses=5,
        )
        assert stalls.icache > 0
        assert stalls.itlb == 5 * baseline_config().itlb_miss_penalty
        assert stalls.total == stalls.icache + stalls.itlb + stalls.decode

    def test_mite_fraction_depends_on_dsb_size(self):
        prog = build_program()
        stream = self._stream()
        big_frac = mite_instruction_fraction(stream, prog, dsb_lines=4)
        small_frac = mite_instruction_fraction(stream, prog, dsb_lines=10_000)
        assert big_frac == 1.0  # me_sad footprint exceeds a 4-line DSB
        assert small_frac == 0.0

    def test_empty_stream(self):
        prog = build_program()
        assert mite_instruction_fraction(TraceStream(), prog, 48) == 0.0


class TestTopdown:
    def test_categories_sum_to_100(self):
        td = TopdownBreakdown.from_cycles(
            width=4, uops=1000, base_cycles=250,
            fe_cycles=50, bs_cycles=25, mem_cycles=100, core_cycles=25,
        )
        total = td.retiring + td.bad_speculation + td.frontend_bound + td.backend_bound
        assert total == pytest.approx(100.0)
        assert td.memory_bound + td.core_bound == pytest.approx(td.backend_bound)

    def test_pure_retirement(self):
        td = TopdownBreakdown.from_cycles(
            width=4, uops=1000, base_cycles=250,
            fe_cycles=0, bs_cycles=0, mem_cycles=0, core_cycles=0,
        )
        assert td.retiring == pytest.approx(100.0)

    def test_validation_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            TopdownBreakdown(
                retiring=50, bad_speculation=10, frontend_bound=10,
                backend_bound=20, memory_bound=10, core_bound=10,
            )

    def test_dispatch_slack_charged_to_core(self):
        # Fewer uops than slots in base cycles -> unused dispatch slots.
        td = TopdownBreakdown.from_cycles(
            width=4, uops=500, base_cycles=250,  # 1000 slots, 500 uops
            fe_cycles=0, bs_cycles=0, mem_cycles=0, core_cycles=0,
        )
        assert td.core_bound == pytest.approx(50.0)
        assert td.retiring == pytest.approx(50.0)


class TestCoreModel:
    def _run(self, config=None, **miss_kw):
        mix = InstrMix(alu=50_000, mul=5_000, load=30_000, store=10_000, branch=8_000)
        stream = TraceStream(instr=mix, instr_by_kernel={"me_sad": mix})
        return run_core_model(
            stream=stream,
            config=config or baseline_config(),
            frontend=FrontendStalls(icache=100.0),
            branch=BranchStats(total_branches=8000, mispredicts=40),
            misses=MissProfile(**miss_kw),
        )

    def test_cycles_at_least_base(self):
        report = self._run()
        assert report.cycles >= report.base_cycles

    def test_mispredicts_add_bs_cycles(self):
        report = self._run()
        assert report.bs_cycles == pytest.approx(
            40 * baseline_config().branch_mispredict_penalty
        )

    def test_memory_misses_raise_backend(self):
        calm = self._run()
        stormy = self._run(load_l1=20_000, load_l2=10_000, load_l3=5_000, load_mem=2_000)
        assert stormy.mem_cycles > calm.mem_cycles
        assert stormy.topdown.backend_bound > calm.topdown.backend_bound

    def test_fe_discounted_under_backend_pressure(self):
        calm = self._run()
        stormy = self._run(load_l1=20_000, load_l2=10_000, load_l3=5_000, load_mem=2_000)
        # Same raw front-end stalls, but more of them overlap BE stalls.
        assert stormy.fe_cycles < calm.fe_cycles
