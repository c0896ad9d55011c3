"""Unit tests for the Figure 9 schedulers: Assignment arithmetic and
SmartScheduler tie-breaking determinism.

The affinity model is faked where needed so these tests isolate the
assignment mechanics from the characterization pipeline.
"""

import pytest

import repro.scheduling.affinity as affinity_mod
from repro.scheduling.casestudy import CaseStudyResult
from repro.scheduling.schedulers import (
    Assignment,
    BestScheduler,
    RandomScheduler,
    SmartScheduler,
)
from repro.scheduling.task import TranscodeTask


def make_tasks(n: int) -> list[TranscodeTask]:
    return [
        TranscodeTask(task_id=i, video="cricket", preset="medium", crf=23,
                      refs=2)
        for i in range(1, n + 1)
    ]


CONFIGS = ["fe_op", "be_op1", "be_op2", "bs_op"]


def flat_cycles(tasks, value=100.0):
    return {t.task_id: {c: value for c in CONFIGS} for t in tasks}


class TestAssignmentArithmetic:
    def test_mean_speedup_pct(self):
        a = Assignment(
            scheduler="x",
            placement={1: "fe_op", 2: "be_op1"},
            task_cycles={1: 100.0, 2: 50.0},
            baseline_cycles={1: 200.0, 2: 60.0},
        )
        # (200/100 - 1) = +100%, (60/50 - 1) = +20% -> mean +60%.
        assert a.mean_speedup_pct == pytest.approx(60.0)

    def test_total_cycles(self):
        a = Assignment("x", {}, {1: 10.0, 2: 30.0}, {1: 10.0, 2: 30.0})
        assert a.total_cycles == pytest.approx(40.0)

    def test_no_speedup_is_zero(self):
        a = Assignment("x", {1: "fe_op"}, {1: 120.0}, {1: 120.0})
        assert a.mean_speedup_pct == pytest.approx(0.0)


class TestSmartTieBreaking:
    def test_equal_scores_prefer_lower_task_then_config_index(self,
                                                              monkeypatch):
        monkeypatch.setattr(
            affinity_mod, "affinity_scores", lambda counters: {}
        )
        tasks = make_tasks(4)
        cycles = flat_cycles(tasks)
        baseline = {t.task_id: 100.0 for t in tasks}
        counters = {t.task_id: None for t in tasks}
        out = SmartScheduler().schedule(
            tasks, cycles, CONFIGS, baseline, counters
        )
        # All-zero affinity: the tie-break pins task i to config i.
        assert out.placement == {
            i + 1: CONFIGS[i] for i in range(len(tasks))
        }

    def test_identical_inputs_identical_placements(self, monkeypatch):
        monkeypatch.setattr(
            affinity_mod, "affinity_scores",
            lambda counters: {"fe_op": 1.0, "bs_op": 1.0},
        )
        tasks = make_tasks(4)
        cycles = flat_cycles(tasks)
        baseline = {t.task_id: 100.0 for t in tasks}
        counters = {t.task_id: None for t in tasks}
        first = SmartScheduler().schedule(
            tasks, cycles, CONFIGS, baseline, counters
        )
        for _ in range(3):
            again = SmartScheduler().schedule(
                tasks, cycles, CONFIGS, baseline, counters
            )
            assert again.placement == first.placement

    def test_tie_break_never_overrides_a_real_preference(self, monkeypatch):
        # Task 4 alone prefers fe_op (the config the tie-break would
        # otherwise hand to task 1): the epsilon must not outvote it.
        monkeypatch.setattr(
            affinity_mod, "affinity_scores",
            lambda counters: {"fe_op": 5.0} if counters == 4 else {},
        )
        tasks = make_tasks(4)
        out = SmartScheduler().schedule(
            tasks, flat_cycles(tasks), CONFIGS,
            {t.task_id: 100.0 for t in tasks},
            {t.task_id: t.task_id for t in tasks},
        )
        assert out.placement[4] == "fe_op"

    def test_requires_counters_and_square_problem(self):
        tasks = make_tasks(4)
        cycles = flat_cycles(tasks)
        baseline = {t.task_id: 100.0 for t in tasks}
        with pytest.raises(ValueError, match="counters"):
            SmartScheduler().schedule(tasks, cycles, CONFIGS, baseline)
        with pytest.raises(ValueError, match="one-to-one"):
            SmartScheduler().schedule(
                tasks[:2], flat_cycles(tasks[:2]), CONFIGS,
                baseline, {1: None, 2: None},
            )


class TestOtherSchedulers:
    def test_random_uses_the_per_task_average(self):
        tasks = make_tasks(1)
        cycles = {1: {"fe_op": 100.0, "be_op1": 300.0,
                      "be_op2": 100.0, "bs_op": 100.0}}
        out = RandomScheduler().schedule(
            tasks, cycles, CONFIGS, {1: 150.0}
        )
        assert out.task_cycles[1] == pytest.approx(150.0)
        assert out.placement[1] == "<average>"

    def test_best_picks_the_fastest_config(self):
        tasks = make_tasks(1)
        cycles = {1: {"fe_op": 90.0, "be_op1": 300.0,
                      "be_op2": 100.0, "bs_op": 100.0}}
        out = BestScheduler().schedule(tasks, cycles, CONFIGS, {1: 100.0})
        assert out.placement[1] == "fe_op"

    def test_empty_task_list_rejected(self):
        with pytest.raises(ValueError, match="no tasks"):
            RandomScheduler().schedule([], {}, CONFIGS, {})


class TestCaseStudyGuards:
    def test_match_fraction_of_empty_study_is_zero(self):
        empty = Assignment("smart", {}, {}, {})
        result = CaseStudyResult(
            tasks=[], config_names=CONFIGS, cycles={}, baseline_cycles={},
            counters={},
            assignments={
                "smart": empty,
                "best": Assignment("best", {}, {}, {}),
            },
        )
        assert result.smart_matches_best_fraction == 0.0


class TestBatchAndServiceAgree:
    """SmartScheduler and SmartPlacement share one solver: on the same
    counters they must produce the same task -> config mapping."""

    @pytest.fixture(scope="class")
    def table3_counters(self):
        from repro.scheduling.casestudy import run_case_study

        study = run_case_study(width=48, height=32, n_frames=3)
        return study.tasks, study.counters

    @pytest.mark.parametrize("scores", ["table3", "all-equal"])
    def test_same_mapping(self, scores, table3_counters, monkeypatch):
        from repro.api.types import TranscodeRequest
        from repro.service.jobs import Job
        from repro.service.placement import SmartPlacement
        from repro.service.workers import WorkerFleet

        tasks, counters = table3_counters
        if scores == "all-equal":
            monkeypatch.setattr(
                affinity_mod, "affinity_scores", lambda counters: {}
            )
        batch = SmartScheduler().schedule(
            tasks, flat_cycles(tasks), CONFIGS,
            {t.task_id: 100.0 for t in tasks}, counters,
        )
        jobs = [
            Job(job_id=t.task_id, request=TranscodeRequest(clip=t.video))
            for t in tasks
        ]
        placed = SmartPlacement().place(
            jobs, WorkerFleet(tuple(CONFIGS)).workers, counters
        )
        assert {
            job_id: worker.config_name for job_id, worker in placed.items()
        } == batch.placement
