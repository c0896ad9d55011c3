"""The three schedulers of Figure 9: random, smart, best.

All schedulers place N transcoding tasks onto M µarch configurations
("servers"). They differ in the information they may use:

- :class:`RandomScheduler` knows nothing; its expected performance is the
  average over all placements (exactly how the paper evaluates it);
- :class:`SmartScheduler` sees only baseline profiling counters and the
  one-to-one constraint (each server gets exactly one task), solving the
  resulting assignment problem over predicted-affinity scores;
- :class:`BestScheduler` is the oracle: it sees the true runtime of every
  (task, config) pair and places each task on its fastest server, with no
  one-to-one constraint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import session as obs
from repro.profiling.counters import CounterSet
from repro.scheduling.affinity import affinity_matrix, solve_assignment
from repro.scheduling.task import TranscodeTask

__all__ = ["Assignment", "RandomScheduler", "SmartScheduler", "BestScheduler"]


@dataclass(frozen=True)
class Assignment:
    """A scheduler's decision plus its achieved performance."""

    scheduler: str
    placement: dict[int, str]  # task_id -> config name ("" for random/average)
    task_cycles: dict[int, float]  # achieved cycles per task
    baseline_cycles: dict[int, float]

    @property
    def mean_speedup_pct(self) -> float:
        """Mean per-task speedup over the baseline configuration, in %."""
        speedups = [
            (self.baseline_cycles[t] / c - 1.0) * 100.0
            for t, c in self.task_cycles.items()
        ]
        return float(np.mean(speedups))

    @property
    def total_cycles(self) -> float:
        return float(sum(self.task_cycles.values()))


def _check_inputs(
    tasks: list[TranscodeTask],
    cycles: dict[int, dict[str, float]],
    config_names: list[str],
) -> None:
    if not tasks:
        raise ValueError("no tasks to schedule")
    for task in tasks:
        if task.task_id not in cycles:
            raise ValueError(f"missing cycle measurements for task {task.task_id}")
        for name in config_names:
            if name not in cycles[task.task_id]:
                raise ValueError(
                    f"missing cycles for task {task.task_id} on {name!r}"
                )


def _observe_schedule(assignment: Assignment, n_tasks: int) -> Assignment:
    """Absorb one scheduling decision into the metrics registry."""
    tel = obs.current()
    if tel is not None:
        m = tel.metrics
        m.counter("scheduler.schedules").inc()
        m.counter(f"scheduler.{assignment.scheduler}.tasks_placed").inc(
            len(assignment.task_cycles)
        )
        # Queue depth at placement time: all tasks arrive at once in the
        # paper's case study, so depth == batch size per decision.
        m.histogram("scheduler.queue_depth").observe(n_tasks)
        m.histogram(
            f"scheduler.{assignment.scheduler}.speedup_pct"
        ).observe(assignment.mean_speedup_pct)
    return assignment


class RandomScheduler:
    """Uniform random placement, evaluated in expectation."""

    name = "random"

    def schedule(
        self,
        tasks: list[TranscodeTask],
        cycles: dict[int, dict[str, float]],
        config_names: list[str],
        baseline_cycles: dict[int, float],
        counters: dict[int, CounterSet] | None = None,
    ) -> Assignment:
        _check_inputs(tasks, cycles, config_names)
        task_cycles: dict[int, float] = {}
        with obs.span("schedule", scheduler=self.name, tasks=len(tasks)):
            for t in tasks:
                with obs.span("schedule.place", scheduler=self.name,
                              task=t.task_id, config="<average>"):
                    task_cycles[t.task_id] = float(
                        np.mean([cycles[t.task_id][c] for c in config_names])
                    )
        return _observe_schedule(
            Assignment(
                scheduler=self.name,
                placement={t.task_id: "<average>" for t in tasks},
                task_cycles=task_cycles,
                baseline_cycles=dict(baseline_cycles),
            ),
            len(tasks),
        )


class SmartScheduler:
    """Characterization-driven one-to-one assignment.

    Builds the affinity matrix from baseline profiling counters and
    solves the assignment problem (Hungarian algorithm) maximizing total
    predicted benefit — the one-to-one constraint prevents any server
    from being over- or under-utilized, as the paper requires.
    """

    name = "smart"

    def schedule(
        self,
        tasks: list[TranscodeTask],
        cycles: dict[int, dict[str, float]],
        config_names: list[str],
        baseline_cycles: dict[int, float],
        counters: dict[int, CounterSet] | None = None,
    ) -> Assignment:
        _check_inputs(tasks, cycles, config_names)
        if counters is None:
            raise ValueError("SmartScheduler requires baseline counters")
        if len(tasks) != len(config_names):
            raise ValueError(
                "one-to-one scheduling needs as many servers as tasks "
                f"({len(tasks)} tasks, {len(config_names)} servers)"
            )
        with obs.span("schedule", scheduler=self.name, tasks=len(tasks)):
            with obs.span("schedule.affinity", tasks=len(tasks)):
                score = affinity_matrix(
                    [counters[t.task_id] for t in tasks], config_names
                )
            with obs.span("schedule.assign", algorithm="hungarian"):
                pairs = solve_assignment(score, maximize=True)
            placement = {tasks[i].task_id: config_names[j] for i, j in pairs}
            task_cycles = {
                tid: cycles[tid][cfg] for tid, cfg in placement.items()
            }
        return _observe_schedule(
            Assignment(
                scheduler=self.name,
                placement=placement,
                task_cycles=task_cycles,
                baseline_cycles=dict(baseline_cycles),
            ),
            len(tasks),
        )


class BestScheduler:
    """Oracle: fastest configuration per task, no constraint."""

    name = "best"

    def schedule(
        self,
        tasks: list[TranscodeTask],
        cycles: dict[int, dict[str, float]],
        config_names: list[str],
        baseline_cycles: dict[int, float],
        counters: dict[int, CounterSet] | None = None,
    ) -> Assignment:
        _check_inputs(tasks, cycles, config_names)
        placement: dict[int, str] = {}
        with obs.span("schedule", scheduler=self.name, tasks=len(tasks)):
            for t in tasks:
                best = min(config_names, key=lambda c: cycles[t.task_id][c])
                with obs.span("schedule.place", scheduler=self.name,
                              task=t.task_id, config=best):
                    placement[t.task_id] = best
        task_cycles = {tid: cycles[tid][cfg] for tid, cfg in placement.items()}
        return _observe_schedule(
            Assignment(
                scheduler=self.name,
                placement=placement,
                task_cycles=task_cycles,
                baseline_cycles=dict(baseline_cycles),
            ),
            len(tasks),
        )
