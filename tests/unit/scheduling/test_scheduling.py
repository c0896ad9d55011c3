"""Unit tests for repro.scheduling (tasks, affinity, schedulers)."""

import numpy as np
import pytest

from repro.profiling.counters import CounterSet
from repro.scheduling.affinity import affinity_scores, solve_assignment
from repro.scheduling.schedulers import (
    Assignment,
    BestScheduler,
    RandomScheduler,
    SmartScheduler,
)
from repro.scheduling.task import TABLE_III_TASKS, TranscodeTask


def _counters(**overrides):
    base = dict(
        time_seconds=0.01, psnr_db=35.0, bitrate_kbps=500.0,
        retiring=50.0, bad_speculation=10.0, frontend_bound=10.0,
        backend_bound=30.0, memory_bound=20.0, core_bound=10.0,
        branch_mpki=3.0, l1d_mpki=10.0, l2_mpki=2.0, l3_mpki=0.2,
        l1i_mpki=2.0, itlb_mpki=0.01,
        stall_any_pki=100.0, stall_rob_pki=80.0, stall_rs_pki=30.0,
        stall_sb_pki=2.0, cycles=1e6, instructions=2e6, ipc=2.0,
    )
    base.update(overrides)
    return CounterSet(**base)


class TestTableIIITasks:
    def test_four_tasks_verbatim(self):
        assert len(TABLE_III_TASKS) == 4
        t1, t2, t3, t4 = TABLE_III_TASKS
        assert (t1.video, t1.crf, t1.refs, t1.preset) == ("desktop", 30, 8, "veryfast")
        assert (t2.video, t2.crf, t2.refs, t2.preset) == ("holi", 10, 1, "slow")
        assert (t3.video, t3.crf, t3.refs, t3.preset) == (
            "presentation", 35, 6, "veryfast",
        )
        assert (t4.video, t4.crf, t4.refs, t4.preset) == ("game2", 15, 2, "medium")

    def test_options_carry_parameters(self):
        opts = TABLE_III_TASKS[0].options()
        assert opts.crf == 30 and opts.refs == 8
        assert opts.preset_name == "veryfast"

    def test_load_geometry(self):
        clip = TABLE_III_TASKS[0].load(width=48, height=32, n_frames=2)
        assert clip.resolution == (48, 32)

    def test_describe(self):
        assert "holi" in TABLE_III_TASKS[1].describe()


class TestAffinity:
    def test_branchy_task_prefers_bs_op(self):
        scores = affinity_scores(
            _counters(bad_speculation=30.0, branch_mpki=8.0, memory_bound=10.0)
        )
        assert scores["bs_op"] == max(scores.values())

    def test_memory_task_prefers_be_op1(self):
        scores = affinity_scores(
            _counters(memory_bound=45.0, bad_speculation=2.0, frontend_bound=3.0,
                      core_bound=3.0)
        )
        assert scores["be_op1"] == max(scores.values())

    def test_frontend_task_prefers_fe_op(self):
        scores = affinity_scores(
            _counters(frontend_bound=40.0, memory_bound=4.0, core_bound=2.0,
                      bad_speculation=3.0, l1i_mpki=20.0)
        )
        assert scores["fe_op"] == max(scores.values())

    def test_all_four_configs_scored(self):
        assert set(affinity_scores(_counters())) == {
            "fe_op", "be_op1", "be_op2", "bs_op",
        }


def _fixture_problem():
    """4 tasks x 4 configs with distinct, known optima."""
    tasks = [TranscodeTask(i + 1, "desktop", 23, 1, "medium") for i in range(4)]
    config_names = ["fe_op", "be_op1", "be_op2", "bs_op"]
    baseline = {t.task_id: 1000.0 for t in tasks}
    # Task i is fastest on config i.
    cycles = {}
    for i, t in enumerate(tasks):
        cycles[t.task_id] = {
            name: (800.0 if j == i else 950.0)
            for j, name in enumerate(config_names)
        }
    # Counters that point each task at its true best config.
    profiles = {
        1: _counters(frontend_bound=40, l1i_mpki=20, memory_bound=5,
                     core_bound=2, bad_speculation=2),
        2: _counters(memory_bound=45, core_bound=2, bad_speculation=2,
                     frontend_bound=3),
        3: _counters(core_bound=30, memory_bound=28, stall_rob_pki=300,
                     stall_rs_pki=200, bad_speculation=2, frontend_bound=3),
        4: _counters(bad_speculation=35, branch_mpki=9, memory_bound=5,
                     core_bound=2, frontend_bound=3),
    }
    return tasks, cycles, config_names, baseline, profiles


class TestSchedulers:
    def test_random_is_average(self):
        tasks, cycles, names, baseline, _ = _fixture_problem()
        a = RandomScheduler().schedule(tasks, cycles, names, baseline)
        for t in tasks:
            expected = (800 + 3 * 950) / 4
            assert a.task_cycles[t.task_id] == pytest.approx(expected)

    def test_best_picks_minimum(self):
        tasks, cycles, names, baseline, _ = _fixture_problem()
        a = BestScheduler().schedule(tasks, cycles, names, baseline)
        assert all(c == 800.0 for c in a.task_cycles.values())
        # No one-to-one constraint: duplicates allowed in principle.
        assert a.placement[1] == "fe_op"

    def test_smart_solves_assignment(self):
        tasks, cycles, names, baseline, profiles = _fixture_problem()
        a = SmartScheduler().schedule(tasks, cycles, names, baseline, profiles)
        # The affinity signals point each task at its true optimum, and the
        # optima are distinct, so smart should match best everywhere.
        assert a.placement == {1: "fe_op", 2: "be_op1", 3: "be_op2", 4: "bs_op"}

    def test_smart_requires_counters(self):
        tasks, cycles, names, baseline, _ = _fixture_problem()
        with pytest.raises(ValueError, match="counters"):
            SmartScheduler().schedule(tasks, cycles, names, baseline, None)

    def test_smart_one_to_one(self):
        tasks, cycles, names, baseline, profiles = _fixture_problem()
        a = SmartScheduler().schedule(tasks, cycles, names, baseline, profiles)
        assert sorted(a.placement.values()) == sorted(names)

    def test_smart_rejects_mismatched_sizes(self):
        tasks, cycles, names, baseline, profiles = _fixture_problem()
        with pytest.raises(ValueError, match="one-to-one"):
            SmartScheduler().schedule(tasks[:2], cycles, names, baseline, profiles)

    def test_missing_measurements_rejected(self):
        tasks, cycles, names, baseline, _ = _fixture_problem()
        del cycles[2]["be_op1"]
        with pytest.raises(ValueError, match="missing cycles"):
            BestScheduler().schedule(tasks, cycles, names, baseline)

    def test_speedup_computation(self):
        a = Assignment(
            scheduler="x",
            placement={1: "c"},
            task_cycles={1: 800.0},
            baseline_cycles={1: 1000.0},
        )
        assert a.mean_speedup_pct == pytest.approx(25.0)
        assert a.total_cycles == 800.0

    def test_empty_tasks_rejected(self):
        with pytest.raises(ValueError):
            RandomScheduler().schedule([], {}, ["a"], {})


class TestSolveAssignmentTies:
    """The tie rule `solve_assignment`'s docstring states, pinned on
    constant matrices, where every assignment has the same value."""

    def test_constant_square_is_decided_by_the_solver(self):
        ones = np.ones((3, 3))
        assert solve_assignment(ones, maximize=True) == [(0, 1), (1, 0), (2, 2)]
        assert solve_assignment(ones, maximize=False) == [(0, 2), (1, 0), (2, 1)]

    @pytest.mark.parametrize("maximize", [True, False])
    def test_constant_wide_takes_the_lowest_columns(self, maximize):
        assert solve_assignment(np.ones((2, 4)), maximize=maximize) == [(0, 0), (1, 1)]

    @pytest.mark.parametrize("maximize", [True, False])
    def test_constant_tall_takes_the_lowest_rows(self, maximize):
        assert solve_assignment(np.ones((4, 2)), maximize=maximize) == [(0, 0), (1, 1)]

    def test_empty_matrix_assigns_nothing(self):
        assert solve_assignment(np.zeros((0, 4)), maximize=True) == []

    @pytest.mark.parametrize("poison", [np.nan, -np.inf])
    def test_invalid_entries_raise(self, poison):
        cost = np.ones((2, 3))
        cost[1, 2] = poison
        with pytest.raises(ValueError, match="invalid numeric entries"):
            solve_assignment(cost, maximize=False)

    def test_infeasible_matrix_raises(self):
        cost = np.ones((2, 3))
        cost[0] = np.inf
        with pytest.raises(ValueError, match="infeasible"):
            solve_assignment(cost, maximize=False)
