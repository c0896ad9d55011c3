"""The paper's scheduler case study (Figure 9).

Simulates each Table III task on the baseline and all four Table IV
variants, then evaluates the random / smart / best schedulers. The smart
scheduler only gets the baseline profiling counters (the
characterization), never the per-variant runtimes.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.profiling.counters import CounterSet
from repro.profiling.perf import record_trace
from repro.resilience.faults import fault_point
from repro.scheduling.schedulers import (
    Assignment,
    BestScheduler,
    RandomScheduler,
    SmartScheduler,
)
from repro.scheduling.task import TABLE_III_TASKS, TranscodeTask
from repro.uarch.configs import config_by_name
from repro.uarch.simulator import simulate

__all__ = ["CaseStudyResult", "run_case_study", "simulate_task"]

_VARIANTS = ("fe_op", "be_op1", "be_op2", "bs_op")


@dataclass
class CaseStudyResult:
    """Everything Figure 9 needs."""

    tasks: list[TranscodeTask]
    config_names: list[str]
    cycles: dict[int, dict[str, float]]  # task -> config -> cycles
    baseline_cycles: dict[int, float]
    counters: dict[int, CounterSet]
    assignments: dict[str, Assignment]

    @property
    def smart_vs_random_pct(self) -> float:
        """How much the smart scheduler beats random, in percentage points
        of mean speedup (the paper's 3.72% number)."""
        return (
            self.assignments["smart"].mean_speedup_pct
            - self.assignments["random"].mean_speedup_pct
        )

    @property
    def smart_matches_best_fraction(self) -> float:
        """Fraction of tasks the smart scheduler placed exactly where the
        best scheduler did (the paper's 75%)."""
        smart = self.assignments["smart"].placement
        best = self.assignments["best"].placement
        if not smart:  # a zero-task run has no placements to match
            return 0.0
        matches = sum(1 for t in smart if smart[t] == best[t])
        return matches / len(smart)


@dataclass(frozen=True)
class TaskJob:
    """One task's simulation job, shippable to a worker process."""

    task: TranscodeTask
    width: int
    height: int
    n_frames: int
    data_capacity_scale: float
    config_names: tuple[str, ...]


def simulate_task(job: TaskJob) -> dict[str, object]:
    """Trace one task's encode and replay it on every configuration.

    Module-level with a JSON-friendly return shape so the experiment
    layer can fan jobs out to worker processes and persist the payloads.
    """
    task = job.task
    fault_point("casestudy.simulate", detail=str(task.task_id))
    video = task.load(width=job.width, height=job.height, n_frames=job.n_frames)
    # One traced encode per task; the trace replays on every config.
    encode_result, stream, program = record_trace(video, task.options())
    base_cfg = config_by_name(
        "baseline", data_capacity_scale=job.data_capacity_scale
    )
    base_report = simulate(stream, program, base_cfg)
    counters = CounterSet.from_report(
        base_report,
        psnr_db=encode_result.psnr_db,
        bitrate_kbps=encode_result.bitrate_kbps,
    )
    per_config: dict[str, float] = {}
    for name in job.config_names:
        cfg = config_by_name(name, data_capacity_scale=job.data_capacity_scale)
        per_config[name] = simulate(stream, program, cfg).cycles
    return {
        "task_id": task.task_id,
        "baseline_cycles": base_report.cycles,
        "counters": counters.as_dict(),
        "cycles": per_config,
    }


def run_case_study(
    tasks: tuple[TranscodeTask, ...] = TABLE_III_TASKS,
    *,
    width: int = 112,
    height: int = 64,
    n_frames: int = 10,
    data_capacity_scale: float = 48.0,
    mapper: Callable[..., Sequence[dict[str, object]]] | None = None,
) -> CaseStudyResult:
    """Run the full Figure 9 experiment at the given proxy scale.

    ``mapper(fn, jobs)`` controls how the per-task simulations execute;
    the default is a serial in-process map, and the experiment layer
    injects the parallel/cached sweep-engine mapper.
    """
    config_names = list(_VARIANTS)
    jobs = [
        TaskJob(
            task=task, width=width, height=height, n_frames=n_frames,
            data_capacity_scale=data_capacity_scale,
            config_names=tuple(config_names),
        )
        for task in tasks
    ]
    if mapper is None:
        payloads = [simulate_task(job) for job in jobs]
    else:
        payloads = list(mapper(simulate_task, jobs))

    cycles: dict[int, dict[str, float]] = {}
    baseline_cycles: dict[int, float] = {}
    counters: dict[int, CounterSet] = {}
    names = CounterSet.field_names()
    for payload in payloads:
        task_id = int(payload["task_id"])  # type: ignore[arg-type]
        baseline_cycles[task_id] = float(payload["baseline_cycles"])  # type: ignore[arg-type]
        raw = payload["counters"]
        counters[task_id] = CounterSet(**{n: float(raw[n]) for n in names})  # type: ignore[index]
        cycles[task_id] = {
            name: float(c) for name, c in payload["cycles"].items()  # type: ignore[union-attr]
        }

    task_list = list(tasks)
    assignments = {
        s.name: s.schedule(
            task_list, cycles, config_names, baseline_cycles, counters
        )
        for s in (RandomScheduler(), SmartScheduler(), BestScheduler())
    }
    return CaseStudyResult(
        tasks=task_list,
        config_names=config_names,
        cycles=cycles,
        baseline_cycles=baseline_cycles,
        counters=counters,
        assignments=assignments,
    )
