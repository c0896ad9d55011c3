"""Property tests for cost-aware smart placement (Hypothesis-driven):

- **Budget is law**: under any objective, a per-worker ``budget_usd``
  $/hour ceiling is never exceeded — every placed worker's hourly rate
  is within budget, over arbitrary heterogeneous fleets and workloads.
- **Deadlines are law**: every placed (job, worker) pair's predicted
  runtime meets the binding deadline (the job's own ``deadline_ms``
  when set, else the policy-wide ``deadline_s``).
- **No silent violations**: a job the policy leaves unplaced genuinely
  has no feasible worker — each free worker violates the deadline, the
  budget, or the min-cost waiting ceiling — so it stays queued for a
  later horizon (and is eventually shed with an explicit error by the
  service, exercised in ``tests/integration/test_fleet_compare.py``).
- **Cross-process determinism**: the same scenario (fleet spec,
  objective, constraints, jobs, seed) yields the identical
  ``job_id -> worker.name`` mapping in a freshly spawned interpreter,
  for both the smart policy and the seeded random control — no
  dependence on hash randomization or global RNG state.
"""

from __future__ import annotations

import json
import subprocess
import sys

from hypothesis import given, settings, strategies as st

from repro.profiling.counters import CounterSet
from repro.api.types import TranscodeRequest
from repro.service.jobs import Job
from repro.service.placement import (
    RandomPlacement,
    SmartPlacement,
    predicted_cost_usd,
    predicted_seconds,
)
from repro.service.workers import WorkerFleet, parse_fleet_spec

# -- scenario construction ---------------------------------------------

#: Fleet building blocks: priced instance types plus Table IV configs.
FLEET_NAMES = (
    "c5.xlarge", "m5.xlarge", "c6g.xlarge", "m6g.xlarge", "a1.xlarge",
    "fe_op", "be_op1", "be_op2", "bs_op", "baseline",
)


def make_counters(cycles: float, *, salt: int = 0) -> CounterSet:
    """A synthetic baseline counter set whose fields vary with ``salt``
    so the affinity model sees distinct jobs (mirrored verbatim in the
    cross-process subprocess snippet below)."""
    return CounterSet(
        time_seconds=cycles / 1e9, psnr_db=35.0, bitrate_kbps=500.0,
        retiring=40.0 + (salt % 5), bad_speculation=10.0,
        frontend_bound=15.0 + (salt % 3), backend_bound=35.0,
        memory_bound=20.0, core_bound=15.0,
        branch_mpki=2.0 + (salt % 4), l1d_mpki=12.0, l2_mpki=3.0,
        l3_mpki=0.3, l1i_mpki=4.0 + (salt % 2), itlb_mpki=0.02,
        stall_any_pki=120.0, stall_rob_pki=70.0, stall_rs_pki=35.0,
        stall_sb_pki=3.0, cycles=cycles, instructions=2.0 * cycles,
        ipc=2.0,
    )


def make_scenario(names, counts, cycles, deadlines_ms):
    """Build (jobs, counters, fleet) from drawn primitives."""
    spec = ",".join(
        f"{name}:{count}" for name, count in zip(names, counts)
    )
    fleet = WorkerFleet(parse_fleet_spec(spec))
    jobs = [
        Job(
            job_id=i + 1,
            request=TranscodeRequest(clip="cricket", deadline_ms=dl),
        )
        for i, (dl, _) in enumerate(zip(deadlines_ms, cycles))
    ]
    counters = {
        job.job_id: make_counters(c, salt=job.job_id)
        for job, c in zip(jobs, cycles)
    }
    return jobs, counters, fleet


fleet_names = st.lists(
    st.sampled_from(FLEET_NAMES), min_size=1, max_size=3, unique=True
)
fleet_counts = st.lists(
    st.integers(min_value=1, max_value=2), min_size=3, max_size=3
)
job_cycles = st.lists(
    st.floats(min_value=1e4, max_value=1e8,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=6,
)
job_deadlines_ms = st.lists(
    st.one_of(st.none(),
              st.floats(min_value=1.0, max_value=3.6e6, allow_nan=False)),
    min_size=6, max_size=6,
)
objectives = st.sampled_from(("min-cost", "min-latency"))
budgets = st.one_of(
    st.none(),
    st.floats(min_value=0.01, max_value=0.2,
              allow_nan=False, allow_infinity=False),
)
deadlines = st.one_of(
    st.none(),
    st.floats(min_value=0.05, max_value=500.0,
              allow_nan=False, allow_infinity=False),
)


def binding_deadline(policy: SmartPlacement, job: Job) -> float | None:
    if job.request.deadline_ms is not None:
        return job.request.deadline_ms / 1000.0
    return policy.deadline_s


def is_feasible(policy, job, worker, counters, workers) -> bool:
    """Mirror of the policy's constraint mask for one (job, worker)."""
    cs = counters[job.job_id]
    deadline = binding_deadline(policy, job)
    if deadline is not None and predicted_seconds(cs, worker) > deadline:
        return False
    if (policy.budget_usd is not None
            and worker.rate_per_hour > policy.budget_usd):
        return False
    if policy.objective == "min-cost" and deadline is None:
        floor = min(
            (predicted_cost_usd(cs, w) for w in workers
             if not w.suspect
             and (policy.budget_usd is None
                  or w.rate_per_hour <= policy.budget_usd)),
            default=None,
        )
        if (floor is not None
                and predicted_cost_usd(cs, worker) > 1.15 * floor):
            return False
    return True


# -- constraint properties ---------------------------------------------

class TestConstraints:
    @settings(max_examples=50, deadline=None)
    @given(names=fleet_names, counts=fleet_counts, cycles=job_cycles,
           deadlines_ms=job_deadlines_ms, objective=objectives,
           budget=budgets, deadline=deadlines)
    def test_budget_and_deadline_never_violated(
        self, names, counts, cycles, deadlines_ms, objective, budget,
        deadline,
    ):
        jobs, counters, fleet = make_scenario(
            names, counts, cycles, deadlines_ms
        )
        policy = SmartPlacement(
            objective=objective, deadline_s=deadline, budget_usd=budget
        )
        placement = policy.place(jobs, fleet.available(), counters)
        by_id = {job.job_id: job for job in jobs}
        for job_id, worker in placement.items():
            if budget is not None:
                assert worker.rate_per_hour <= budget
            binding = binding_deadline(policy, by_id[job_id])
            if binding is not None:
                assert (predicted_seconds(counters[job_id], worker)
                        <= binding)

    @settings(max_examples=50, deadline=None)
    @given(names=fleet_names, counts=fleet_counts, cycles=job_cycles,
           deadlines_ms=job_deadlines_ms, objective=objectives,
           budget=budgets, deadline=deadlines)
    def test_unplaced_jobs_truly_have_no_feasible_worker(
        self, names, counts, cycles, deadlines_ms, objective, budget,
        deadline,
    ):
        # The other half of "never silently violate": leaving a job
        # unplaced is only allowed when *every* free worker is
        # infeasible for it — such jobs stay queued rather than run in
        # violation.
        jobs, counters, fleet = make_scenario(
            names, counts, cycles, deadlines_ms
        )
        policy = SmartPlacement(
            objective=objective, deadline_s=deadline, budget_usd=budget
        )
        workers = fleet.available()
        placement = policy.place(jobs, workers, counters)
        considered = jobs[: len(workers)]
        for job in considered:
            if job.job_id in placement:
                continue
            taken = set(placement.values())
            assert all(
                not is_feasible(policy, job, w, counters, workers)
                for w in workers if w not in taken
            ), f"job {job.job_id} had a feasible idle worker but sat"

    @settings(max_examples=30, deadline=None)
    @given(names=fleet_names, counts=fleet_counts, cycles=job_cycles,
           objective=objectives)
    def test_infeasible_constraints_place_nothing(
        self, names, counts, cycles, objective
    ):
        # An impossible deadline masks every pair: the whole batch stays
        # queued (the service later sheds it with an explicit error).
        jobs, counters, fleet = make_scenario(
            names, counts, cycles, [None] * 6
        )
        policy = SmartPlacement(objective=objective, deadline_s=1e-12)
        assert policy.place(jobs, fleet.available(), counters) == {}

    @settings(max_examples=30, deadline=None)
    @given(names=fleet_names, counts=fleet_counts, cycles=job_cycles,
           objective=objectives)
    def test_feasible_scenarios_place_every_considered_job(
        self, names, counts, cycles, objective
    ):
        # With no constraints under min-latency, or a generous deadline
        # under min-cost, every job in the batch window must be placed.
        jobs, counters, fleet = make_scenario(
            names, counts, cycles, [None] * 6
        )
        deadline = 1e9 if objective == "min-cost" else None
        policy = SmartPlacement(objective=objective, deadline_s=deadline)
        workers = fleet.available()
        placement = policy.place(jobs, workers, counters)
        assert len(placement) == min(len(jobs), len(workers))
        # One job per worker, never sharing.
        names_used = [w.name for w in placement.values()]
        assert len(names_used) == len(set(names_used))


# -- cross-process determinism -----------------------------------------

#: Rebuilds one scenario from a JSON spec and prints the placement
#: mapping. Keep the counter construction in sync with
#: :func:`make_counters` above.
_SUBPROCESS_PLACE = """
import json, sys
from repro.profiling.counters import CounterSet
from repro.api.types import TranscodeRequest
from repro.service.jobs import Job
from repro.service.placement import RandomPlacement, SmartPlacement
from repro.service.workers import WorkerFleet, parse_fleet_spec

spec = json.loads(sys.argv[1])

def make_counters(cycles, salt):
    return CounterSet(
        time_seconds=cycles / 1e9, psnr_db=35.0, bitrate_kbps=500.0,
        retiring=40.0 + (salt % 5), bad_speculation=10.0,
        frontend_bound=15.0 + (salt % 3), backend_bound=35.0,
        memory_bound=20.0, core_bound=15.0,
        branch_mpki=2.0 + (salt % 4), l1d_mpki=12.0, l2_mpki=3.0,
        l3_mpki=0.3, l1i_mpki=4.0 + (salt % 2), itlb_mpki=0.02,
        stall_any_pki=120.0, stall_rob_pki=70.0, stall_rs_pki=35.0,
        stall_sb_pki=3.0, cycles=cycles, instructions=2.0 * cycles,
        ipc=2.0,
    )

fleet = WorkerFleet(parse_fleet_spec(spec["fleet"]))
jobs = [
    Job(job_id=j["job_id"],
        request=TranscodeRequest(clip="cricket",
                                 deadline_ms=j["deadline_ms"]))
    for j in spec["jobs"]
]
counters = {
    j["job_id"]: make_counters(j["cycles"], j["job_id"])
    for j in spec["jobs"]
}
if spec["policy"] == "random":
    policy = RandomPlacement(seed=spec["seed"])
else:
    policy = SmartPlacement(
        objective=spec["objective"], deadline_s=spec["deadline_s"],
        budget_usd=spec["budget_usd"],
    )
placement = policy.place(jobs, fleet.available(), counters)
print(json.dumps({str(k): w.name for k, w in placement.items()}))
"""


def _place_in_subprocess(spec: dict) -> dict[str, str]:
    proc = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_PLACE, json.dumps(spec)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


class TestCrossProcessDeterminism:
    @settings(max_examples=4, deadline=None)
    @given(names=fleet_names, counts=fleet_counts, cycles=job_cycles,
           deadlines_ms=job_deadlines_ms, objective=objectives,
           budget=budgets, deadline=deadlines,
           policy_name=st.sampled_from(("smart", "random")),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_same_scenario_same_mapping_in_fresh_interpreter(
        self, names, counts, cycles, deadlines_ms, objective, budget,
        deadline, policy_name, seed,
    ):
        jobs, counters, fleet = make_scenario(
            names, counts, cycles, deadlines_ms
        )
        if policy_name == "random":
            policy = RandomPlacement(seed=seed)
        else:
            policy = SmartPlacement(
                objective=objective, deadline_s=deadline,
                budget_usd=budget,
            )
        local = policy.place(jobs, fleet.available(), counters)
        spec = {
            "fleet": ",".join(
                f"{n}:{c}" for n, c in zip(names, counts)
            ),
            "policy": policy_name,
            "objective": objective,
            "deadline_s": deadline,
            "budget_usd": budget,
            "seed": seed,
            "jobs": [
                {"job_id": job.job_id,
                 "cycles": counters[job.job_id].cycles,
                 "deadline_ms": job.request.deadline_ms}
                for job in jobs
            ],
        }
        remote = _place_in_subprocess(spec)
        assert remote == {
            str(job_id): worker.name for job_id, worker in local.items()
        }
