"""Online placement policies: SmartScheduler-style vs. random control.

Each dispatch round the service hands the policy the batch of pending
jobs, the free workers, and the jobs' *baseline* profiling counters —
never per-config runtimes (those belong to the oracle). Two policies:

- :class:`SmartPlacement` scores every (job, worker) pair with the
  paper's characterization-driven affinity model
  (:func:`repro.scheduling.affinity.affinity_scores`) and solves the
  assignment problem over the batch — the serving-mode twin of
  :class:`repro.scheduling.schedulers.SmartScheduler`;
- :class:`RandomPlacement` is the control: a deterministic, seeded
  random one-to-one placement, so the paper's §V smart-vs-random margin
  is reproducible in serving mode.

Smart placement supports three Pareto :data:`OBJECTIVES` over
heterogeneous fleets (instance types with distinct clocks and $/hour
rates, :mod:`repro.uarch.instances`):

- ``throughput`` (default) — maximize predicted affinity benefit, the
  seeded same-ISA behaviour;
- ``min-cost`` — minimize predicted dollars per job, subject to the
  latency deadline when one is set;
- ``min-latency`` — minimize predicted seconds per job, subject to the
  per-worker $/hour budget when one is set.

Both constraints (``deadline_s``, per-core ``budget_usd`` $/hour) apply
whenever set, under either cost-aware objective; a job's own
``deadline_ms`` overrides the policy-wide deadline. Pairs violating a
constraint are masked infeasible, and a job with *no* feasible worker is
left unplaced — it stays queued for a later horizon or is shed by the
service with an explicit error, never silently placed in violation.

Predictions come from the same characterization surface the smart
scheduler uses: the baseline cycle count discounted by the affinity
share of the target config (:func:`predicted_cycles`), converted through
the worker's virtual clock (:func:`predicted_seconds`) and its $/hour
rate (:func:`predicted_cost_usd`).

All policies are deterministic: smart breaks score ties toward lower
job/worker indices (same convention as the batch SmartScheduler), and
random derives its choices by hashing ``(seed, round, job_id)`` — no
global RNG state.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.obs import session as obs
from repro.profiling.counters import CounterSet
from repro.scheduling.affinity import (
    affinity_matrix,
    affinity_scores,
    solve_assignment,
)
from repro.service.jobs import Job
from repro.service.workers import Worker

__all__ = [
    "OBJECTIVES",
    "PLACEMENT_POLICIES",
    "RandomPlacement",
    "SmartPlacement",
    "make_policy",
    "predicted_cost_usd",
    "predicted_cycles",
    "predicted_seconds",
]

#: Penalty standing in for "infeasible" in the assignment matrix: large
#: enough that the solver never trades a feasible pair away for one.
_INFEASIBLE = 1e15

#: Largest fraction of baseline cycles the affinity model may predict
#: away on a perfectly matched config — the paper's per-config gains are
#: single-digit to low-double-digit percents, so predictions stay
#: conservative rather than promising oracle speedups.
_MAX_GAIN = 0.25

#: Smart-placement objective registry (see module docstring).
OBJECTIVES = ("throughput", "min-cost", "min-latency")

#: Under ``min-cost``, a job with no binding deadline only accepts
#: workers within this fractional margin of its fleet-cheapest predicted
#: cost — beyond it the job *waits* for a cheap worker to free up
#: instead of burning dollars on an expensive one (the cost half of the
#: Pareto tradeoff; a deadline re-enables expensive placements).
_COST_SLACK = 0.15


def predicted_cycles(
    counters: CounterSet,
    config_name: str,
    *,
    cycle_scale: float | None = None,
) -> float:
    """Predicted cycles for a job, from baseline counters only.

    Instance workers pass their catalogue ``cycle_scale`` (the measured
    per-family cycles-vs-baseline ratio); Table IV config workers fall
    back to the affinity model, discounting the baseline cycle count by
    the config's share of the total benefit (capped at ``_MAX_GAIN``).
    """
    if cycle_scale is not None:
        return float(counters.cycles) * cycle_scale
    scores = affinity_scores(counters)
    total = sum(scores.values())
    gain = 0.0
    if total > 0:
        gain = _MAX_GAIN * scores.get(config_name, 0.0) / total
    return float(counters.cycles) * (1.0 - gain)


def predicted_seconds(counters: CounterSet, worker: Worker) -> float:
    """Predicted virtual seconds for a job on ``worker`` (predicted
    cycles through the worker's simulated clock)."""
    instance = worker.instance
    cycles = predicted_cycles(
        counters, worker.config_name,
        cycle_scale=instance.cycle_scale if instance is not None else None,
    )
    return cycles / worker.clock_hz


def predicted_cost_usd(counters: CounterSet, worker: Worker) -> float:
    """Predicted dollars to run a job on ``worker`` (predicted occupancy
    billed at the worker's hourly rate)."""
    return predicted_seconds(counters, worker) / 3600.0 * worker.rate_per_hour


class SmartPlacement:
    """Characterization-driven assignment over each dispatch batch."""

    name = "smart"

    def __init__(
        self,
        *,
        objective: str = "throughput",
        deadline_s: float | None = None,
        budget_usd: float | None = None,
    ) -> None:
        if objective not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {objective!r}; "
                f"choose from {', '.join(OBJECTIVES)}"
            )
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be > 0")
        if budget_usd is not None and budget_usd <= 0:
            raise ValueError("budget_usd must be > 0")
        self.objective = objective
        self.deadline_s = deadline_s
        self.budget_usd = budget_usd
        #: The whole fleet (busy workers included), when bound by the
        #: service — lets min-cost compare an offered worker against the
        #: cheapest the fleet will *eventually* free up.
        self._fleet_workers: list[Worker] | None = None

    def bind_fleet(self, workers: list[Worker]) -> None:
        """Tell the policy the full fleet it schedules for (not just the
        currently-free subset), so waiting for a cheaper busy worker
        becomes an option under ``min-cost``."""
        self._fleet_workers = list(workers)

    def _deadline_for(self, job: Job) -> float | None:
        """The binding deadline for one job: its own request deadline
        when set, else the policy-wide one."""
        if job.request.deadline_ms is not None:
            return job.request.deadline_ms / 1000.0
        return self.deadline_s

    def _cost_matrix(
        self,
        jobs: list[Job],
        workers: list[Worker],
        counters: dict[int, CounterSet],
    ) -> np.ndarray:
        """The (job, worker) minimization matrix for cost-aware
        objectives, with constraint-violating pairs masked infeasible."""
        fleet = self._fleet_workers or workers
        cost = np.zeros((len(jobs), len(workers)))
        for i, job in enumerate(jobs):
            deadline = self._deadline_for(job)
            ceiling = None
            if self.objective == "min-cost" and deadline is None:
                # No latency pressure: only near-cheapest placements are
                # acceptable; pricier workers mean the job waits.
                floor = min(
                    (predicted_cost_usd(counters[job.job_id], w)
                     for w in fleet
                     if not w.suspect
                     and (self.budget_usd is None
                          or w.rate_per_hour <= self.budget_usd)),
                    default=None,
                )
                if floor is not None:
                    ceiling = (1.0 + _COST_SLACK) * floor
            for j, worker in enumerate(workers):
                seconds = predicted_seconds(counters[job.job_id], worker)
                dollars = seconds / 3600.0 * worker.rate_per_hour
                if deadline is not None and seconds > deadline:
                    cost[i, j] = _INFEASIBLE
                elif (self.budget_usd is not None
                        and worker.rate_per_hour > self.budget_usd):
                    cost[i, j] = _INFEASIBLE
                elif ceiling is not None and dollars > ceiling:
                    cost[i, j] = _INFEASIBLE
                else:
                    cost[i, j] = (dollars if self.objective == "min-cost"
                                  else seconds)
        return cost

    def place(
        self,
        jobs: list[Job],
        workers: list[Worker],
        counters: dict[int, CounterSet],
    ) -> dict[int, Worker]:
        """Map ``job_id -> worker`` for up to ``len(workers)`` jobs.

        Under ``throughput``, builds the affinity matrix from baseline
        counters and solves the (possibly rectangular) assignment
        problem maximizing predicted benefit. Under ``min-cost`` /
        ``min-latency``, minimizes predicted dollars / seconds instead,
        drops constraint-infeasible pairs, and leaves jobs with no
        feasible worker unplaced. Each free worker takes at most one job
        per round.
        """
        if not jobs or not workers:
            return {}
        jobs = jobs[: len(workers)]
        if self.objective == "throughput":
            score = affinity_matrix(
                [counters[job.job_id] for job in jobs],
                [worker.config_name for worker in workers],
            )
            return {
                jobs[i].job_id: workers[j]
                for i, j in solve_assignment(score, maximize=True)
            }
        cost = self._cost_matrix(jobs, workers, counters)
        pairs = solve_assignment(cost, maximize=False)
        placement = {
            jobs[i].job_id: workers[j]
            for i, j in pairs
            if cost[i, j] < _INFEASIBLE
        }
        unplaced = len(pairs) - len(placement)
        if unplaced:
            obs.inc("service.placements_infeasible", unplaced)
        return placement


class RandomPlacement:
    """Seeded random one-to-one placement (the control policy)."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._round = 0

    def place(
        self,
        jobs: list[Job],
        workers: list[Worker],
        counters: dict[int, CounterSet],
    ) -> dict[int, Worker]:
        """Map each job to a uniformly chosen distinct free worker.

        Choices hash ``(seed, round, job_id)`` so a given seed yields
        the same placements on every run; ``counters`` is accepted (and
        ignored) to keep the policy signatures interchangeable.
        """
        if not jobs or not workers:
            return {}
        self._round += 1
        free = list(workers)
        placement: dict[int, Worker] = {}
        for job in jobs[: len(workers)]:
            digest = hashlib.sha256(
                f"{self.seed}|{self._round}|{job.job_id}".encode()
            ).digest()
            index = int.from_bytes(digest[:8], "big") % len(free)
            placement[job.job_id] = free.pop(index)
        return placement


#: Policy-name registry used by the service config and the CLI.
PLACEMENT_POLICIES = ("smart", "random")


def make_policy(
    name: str,
    *,
    seed: int = 0,
    objective: str = "throughput",
    deadline_s: float | None = None,
    budget_usd: float | None = None,
) -> SmartPlacement | RandomPlacement:
    """Instantiate a placement policy by registry name. The objective
    and constraint knobs shape :class:`SmartPlacement`; the random
    control ignores them (it is the policy being compared against)."""
    if name == "smart":
        return SmartPlacement(
            objective=objective, deadline_s=deadline_s,
            budget_usd=budget_usd,
        )
    if name == "random":
        return RandomPlacement(seed=seed)
    raise ValueError(
        f"unknown placement policy {name!r}; "
        f"choose from {', '.join(PLACEMENT_POLICIES)}"
    )
