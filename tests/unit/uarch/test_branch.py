"""Unit tests for repro.uarch.branch."""

import numpy as np
import pytest

from repro.uarch.branch import BranchModel, BranchStats, two_level_mispredicts


class TestTwoLevelAnalytic:
    def test_empty_sequence(self):
        assert two_level_mispredicts(np.array([], dtype=bool), 6) == 0.0

    def test_constant_sequence_only_warmup(self):
        outcomes = np.ones(1000, dtype=bool)
        m = two_level_mispredicts(outcomes, 6)
        # One pattern, zero minority, 1 training + 3 warmup.
        assert m == pytest.approx(1 + 3.0)

    def test_alternating_sequence_learned(self):
        outcomes = np.tile([True, False], 500).astype(bool)
        m = two_level_mispredicts(outcomes, 6)
        # Two patterns, each fully predictable after training.
        assert m <= 6.0

    def test_short_period_learned_long_period_not(self):
        rng = np.random.default_rng(0)
        pattern = rng.random(4) < 0.5  # period 4 < history 6
        periodic = np.tile(pattern, 250)
        m_periodic = two_level_mispredicts(periodic, 6)
        random = rng.random(1000) < 0.5
        m_random = two_level_mispredicts(random.astype(bool), 6)
        assert m_periodic < m_random / 5

    def test_random_sequence_near_half(self):
        rng = np.random.default_rng(1)
        outcomes = (rng.random(4000) < 0.5).astype(bool)
        m = two_level_mispredicts(outcomes, 6)
        # Random outcomes with uniform-pattern conditioning: minority
        # counts approach 50% of occurrences.
        assert 0.35 * 4000 < m < 0.55 * 4000

    def test_biased_sequence_scales_with_minority(self):
        rng = np.random.default_rng(2)
        outcomes = (rng.random(4000) < 0.05).astype(bool)
        m = two_level_mispredicts(outcomes, 6)
        assert m < 0.12 * 4000

    def test_degenerate_history_bimodal(self):
        outcomes = np.array([True] * 70 + [False] * 30, dtype=bool)
        assert two_level_mispredicts(outcomes, 0) == pytest.approx(31.0)

    def test_sequence_shorter_than_history(self):
        assert two_level_mispredicts(np.ones(3, dtype=bool), 6) == 1.5

    @pytest.mark.parametrize("n", [0, 10, 200])
    def test_history_over_62_rejected_at_any_length(self, n):
        """The check used to sit behind the length branches: 10 outcomes at
        history 100 returned 5.0, 200 outcomes raised."""
        with pytest.raises(ValueError, match="history_bits must be <= 62, got 100"):
            two_level_mispredicts(np.ones(n, dtype=bool), 100)

    def test_longer_history_never_worse_steady_state(self):
        rng = np.random.default_rng(3)
        pattern = rng.random(12) < 0.5
        outcomes = np.tile(pattern, 200)
        m_short = two_level_mispredicts(outcomes, 4)
        m_long = two_level_mispredicts(outcomes, 16)
        assert m_long <= m_short


class TestBranchModel:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            BranchModel("perceptron")

    def test_static_predicts_not_taken(self):
        model = BranchModel("static")
        model.record("s", np.array([True] * 80 + [False] * 20))
        stats = model.evaluate(total_branches=100)
        assert stats.mispredicts == pytest.approx(80.0)

    def test_static_with_hints_predicts_majority(self):
        model = BranchModel("static")
        model.record("s", np.array([True] * 80 + [False] * 20))
        stats = model.evaluate(total_branches=100, branch_hints=True)
        assert stats.mispredicts == pytest.approx(20.0)

    def test_tage_beats_pentium_m_on_long_patterns(self):
        rng = np.random.default_rng(4)
        pattern = rng.random(20) < 0.5  # period 20 > PM history 6
        outcomes = np.tile(pattern, 100).astype(bool)
        pm = BranchModel("pentium_m")
        pm.record("s", outcomes)
        tage = BranchModel("tage")
        tage.record("s", outcomes)
        n = outcomes.size
        m_pm = pm.evaluate(total_branches=n).mispredicts
        m_tage = tage.evaluate(total_branches=n).mispredicts
        assert m_tage < m_pm / 2

    def test_loop_branch_base_rate(self):
        model = BranchModel("pentium_m")
        stats = model.evaluate(total_branches=1_000_000)
        assert stats.mispredicts == pytest.approx(3000.0)  # 0.3% base rate

    def test_tage_base_rate_lower(self):
        pm = BranchModel("pentium_m").evaluate(total_branches=1e6).mispredicts
        tage = BranchModel("tage").evaluate(total_branches=1e6).mispredicts
        assert tage < pm

    def test_sites_accumulate_across_events(self):
        model = BranchModel("pentium_m")
        model.record("k:a", np.array([True, False]))
        model.record("k:a", np.array([True, False]))
        model.record("k:b", np.array([True]))
        stats = model.evaluate(total_branches=5)
        assert stats.total_branches == 5

    def test_weighted_sequences_scale(self):
        rng = np.random.default_rng(5)
        outcomes = (rng.random(500) < 0.5).astype(bool)
        light = BranchModel("pentium_m")
        light.record("s", outcomes, weight=1.0)
        heavy = BranchModel("pentium_m")
        heavy.record("s", outcomes, weight=4.0)
        m1 = light.evaluate(total_branches=500).mispredicts
        m4 = heavy.evaluate(total_branches=2000).mispredicts
        assert m4 > m1 * 2

    def test_stats_helpers(self):
        stats = BranchStats(total_branches=2000, mispredicts=10)
        assert stats.mpki(1_000_000) == pytest.approx(0.01)
