"""Unit tests for the online placement policies (smart vs. random).

The smart policy's affinity model is faked via monkeypatching so these
tests pin down pure placement mechanics: assignment maximization,
deterministic tie-breaking, and the seeded random control.
"""

import pytest

import repro.scheduling.affinity as affinity_mod
from repro.api.types import TranscodeRequest
from repro.service.jobs import Job
from repro.service.placement import (
    PLACEMENT_POLICIES,
    RandomPlacement,
    SmartPlacement,
    make_policy,
)
from repro.service.workers import WorkerFleet


@pytest.fixture()
def fleet() -> WorkerFleet:
    return WorkerFleet(("fe_op", "be_op1", "be_op2", "bs_op"))


def make_jobs(n: int) -> list[Job]:
    return [
        Job(job_id=i, request=TranscodeRequest(clip="cricket"))
        for i in range(1, n + 1)
    ]


class TestSmartPlacement:
    def test_places_each_job_on_its_best_worker(self, fleet, monkeypatch):
        # Job 1 strongly prefers bs_op, job 2 fe_op; the fake affinity
        # model keys off the per-job counter stand-ins.
        prefs = {
            1: {"bs_op": 10.0},
            2: {"fe_op": 10.0},
        }
        monkeypatch.setattr(
            affinity_mod, "affinity_scores", lambda token: prefs[token]
        )
        jobs = make_jobs(2)
        counters = {j.job_id: j.job_id for j in jobs}
        out = SmartPlacement().place(jobs, fleet.available(), counters)
        assert out[1].config_name == "bs_op"
        assert out[2].config_name == "fe_op"

    def test_equal_scores_break_toward_lower_indices(self, fleet,
                                                     monkeypatch):
        monkeypatch.setattr(
            affinity_mod, "affinity_scores", lambda token: {}
        )
        jobs = make_jobs(4)
        counters = {j.job_id: None for j in jobs}
        workers = fleet.available()
        out = SmartPlacement().place(jobs, workers, counters)
        # All-zero scores: job i must land on worker i, run after run.
        for i, job in enumerate(jobs):
            assert out[job.job_id] is workers[i]
        again = SmartPlacement().place(jobs, workers, counters)
        assert {k: v.name for k, v in again.items()} == {
            k: v.name for k, v in out.items()
        }

    def test_batch_larger_than_fleet_truncates(self, fleet, monkeypatch):
        monkeypatch.setattr(
            affinity_mod, "affinity_scores", lambda token: {}
        )
        jobs = make_jobs(6)
        counters = {j.job_id: None for j in jobs}
        out = SmartPlacement().place(jobs, fleet.available(), counters)
        assert set(out) == {1, 2, 3, 4}  # first len(workers) jobs only

    def test_empty_inputs(self, fleet):
        assert SmartPlacement().place([], fleet.available(), {}) == {}
        assert SmartPlacement().place(make_jobs(1), [], {1: None}) == {}


class TestRandomPlacement:
    def test_same_seed_same_placements(self, fleet):
        jobs = make_jobs(4)
        counters = {j.job_id: None for j in jobs}
        a = RandomPlacement(seed=7).place(jobs, fleet.available(), counters)
        b = RandomPlacement(seed=7).place(jobs, fleet.available(), counters)
        assert {k: v.name for k, v in a.items()} == {
            k: v.name for k, v in b.items()
        }

    def test_workers_are_distinct_per_round(self, fleet):
        jobs = make_jobs(4)
        counters = {j.job_id: None for j in jobs}
        out = RandomPlacement(seed=0).place(jobs, fleet.available(), counters)
        names = [w.name for w in out.values()]
        assert len(set(names)) == len(names) == 4

    def test_round_counter_varies_choices(self, fleet):
        # The same job ids across successive rounds need not repeat the
        # same worker; assert only that both rounds are valid one-to-one
        # placements (the hash includes the round index).
        policy = RandomPlacement(seed=0)
        jobs = make_jobs(4)
        counters = {j.job_id: None for j in jobs}
        for _ in range(2):
            out = policy.place(jobs, fleet.available(), counters)
            assert len({w.name for w in out.values()}) == 4


class TestRegistry:
    def test_registry_names(self):
        assert PLACEMENT_POLICIES == ("smart", "random")
        assert make_policy("smart").name == "smart"
        assert make_policy("random", seed=3).seed == 3

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="placement policy"):
            make_policy("oracle")
