"""Property-based tests for the µarch substrate (cache, predictors)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.uarch.branch import BranchModel, two_level_mispredicts
from repro.uarch.cache import Cache, CacheHierarchy
from repro.uarch.config import CacheParams

lines_st = st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=400)
outcomes_st = st.lists(st.booleans(), min_size=1, max_size=2000)


class TestCacheProps:
    @given(lines_st)
    def test_misses_never_exceed_accesses(self, lines):
        c = Cache(CacheParams(1024, 2), "c")
        for line in lines:
            c.access_line(line)
        assert 0 <= c.stats.misses <= c.stats.accesses

    @given(lines_st)
    def test_misses_at_least_distinct_lines_bounded(self, lines):
        """Compulsory misses: at least one miss per distinct line touched
        (LRU never prefetches), and a fully-associative cache big enough
        to hold everything misses *exactly* once per distinct line."""
        n_distinct = len(set(lines))
        big = Cache(CacheParams(256 * 64, 256), "big")  # one set, 256 ways
        for line in lines:
            big.access_line(line)
        assert big.stats.misses == n_distinct

    @given(lines_st)
    def test_bigger_cache_never_more_misses_fully_assoc(self, lines):
        """LRU inclusion property: a larger fully-associative LRU cache
        never misses more than a smaller one on the same trace."""
        small = Cache(CacheParams(4 * 64, 4), "s")  # 1 set, 4 ways
        large = Cache(CacheParams(16 * 64, 16), "l")  # 1 set, 16 ways
        for line in lines:
            small.access_line(line)
            large.access_line(line)
        assert large.stats.misses <= small.stats.misses

    @given(lines_st)
    def test_immediate_rereference_always_hits(self, lines):
        c = Cache(CacheParams(1024, 4), "c")
        for line in lines:
            c.access_line(line)
            assert c.access_line(line) is True

    @given(lines_st)
    def test_hierarchy_levels_monotone(self, lines):
        """Deeper levels see at most the misses of shallower levels."""
        l1 = Cache(CacheParams(512, 2), "l1")
        l2 = Cache(CacheParams(2048, 4), "l2")
        hier = CacheHierarchy([l1, l2])
        addrs = np.array([l * 64 for l in lines], dtype=np.uint64)
        hier.access(addrs)
        assert l2.stats.accesses == l1.stats.misses
        assert l2.stats.misses <= l1.stats.misses
        assert hier.mem_accesses == l2.stats.misses


class TestBranchProps:
    @given(outcomes_st, st.sampled_from([2, 4, 6, 8]))
    def test_mispredicts_bounded(self, outcomes, history):
        arr = np.array(outcomes, dtype=bool)
        m = two_level_mispredicts(arr, history)
        assert 0.0 <= m <= arr.size + history

    @given(outcomes_st)
    def test_predictor_ordering_static_worst(self, outcomes):
        """On any taken-heavy stream, two-level beats static not-taken."""
        arr = np.array(outcomes, dtype=bool)
        static = BranchModel("static")
        static.record("s", arr)
        pm = BranchModel("pentium_m")
        pm.record("s", arr)
        m_static = static.evaluate(total_branches=arr.size).mispredicts
        m_pm = pm.evaluate(total_branches=arr.size).mispredicts
        # Static mispredicts every taken branch; the two-level predictor
        # at least learns a constant bias (modulo training, warm-up, and
        # aliasing overheads, which dominate on very short sequences).
        assert m_pm <= m_static + 0.6 * arr.size + 2.0

    @given(outcomes_st)
    def test_weight_scaling_linear(self, outcomes):
        arr = np.array(outcomes, dtype=bool)
        one = BranchModel("pentium_m")
        one.record("s", arr, weight=1.0)
        three = BranchModel("pentium_m")
        three.record("s", arr, weight=3.0)
        m1 = one.evaluate(total_branches=arr.size).mispredicts
        m3 = three.evaluate(total_branches=3 * arr.size).mispredicts
        assert m3 == m1 * 3

    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=10, max_value=100))
    def test_periodic_patterns_fully_learned_by_tage(self, period, reps):
        """Any periodic pattern with period <= 16 is eventually learned."""
        rng = np.random.default_rng(period)
        pattern = rng.random(period) < 0.5
        outcomes = np.tile(pattern, reps)
        tage = BranchModel("tage")
        tage.record("s", outcomes)
        m = tage.evaluate(total_branches=outcomes.size).mispredicts
        # Steady state is perfect; only training/warmup misses remain.
        assert m < 0.15 * outcomes.size + 2 * period + 40
