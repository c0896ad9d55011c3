"""Figure 9: transcoding speedup of the three schedulers over baseline.

Runs the paper's case study — Table III tasks on Table IV configurations
— and reports the random / smart / best schedulers' mean speedups, the
smart-vs-random margin (paper: 3.72%), and the fraction of tasks where
the smart placement coincides with the oracle's (paper: 75%).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from repro._util import format_table
from repro.experiments.cache import content_key
from repro.experiments.runner import CachedValues, ExperimentScale, QUICK
from repro.scheduling.casestudy import CaseStudyResult, run_case_study
from repro.uarch.configs import config_by_name

__all__ = ["Fig9Result", "run"]


@dataclass
class Fig9Result:
    case_study: CaseStudyResult

    @property
    def speedups(self) -> dict[str, float]:
        return {
            name: a.mean_speedup_pct
            for name, a in self.case_study.assignments.items()
        }

    @property
    def smart_vs_random_pct(self) -> float:
        return self.case_study.smart_vs_random_pct

    @property
    def smart_matches_best_fraction(self) -> float:
        return self.case_study.smart_matches_best_fraction

    def render(self) -> str:
        cs = self.case_study
        per_task_rows = []
        for task in cs.tasks:
            base = cs.baseline_cycles[task.task_id]
            row = [task.describe()]
            for cfg in cs.config_names:
                row.append((base / cs.cycles[task.task_id][cfg] - 1) * 100)
            per_task_rows.append(row)
        per_task = format_table(
            ["task"] + [f"{c} %" for c in cs.config_names], per_task_rows
        )
        sched_rows = [
            [name, a.mean_speedup_pct,
             " ".join(f"{t}->{c}" for t, c in sorted(a.placement.items()))]
            for name, a in cs.assignments.items()
        ]
        sched = format_table(["scheduler", "mean speedup %", "placement"], sched_rows)
        return (
            "Figure 9 — scheduler case study (speedup over baseline config)\n"
            "per-task speedup on each Table IV configuration:\n" + per_task +
            "\n\nscheduler comparison:\n" + sched +
            f"\n\nsmart - random = {self.smart_vs_random_pct:+.2f} pp "
            f"(paper: +3.72); smart matches best on "
            f"{self.smart_matches_best_fraction * 100:.0f}% of tasks (paper: 75%)"
        )


def _job_key(job) -> str:
    """Content hash for one task's simulation payload."""
    return content_key(
        "fig9",
        task=job.task,
        video={"width": job.width, "height": job.height,
               "n_frames": job.n_frames},
        sim={"data_capacity_scale": job.data_capacity_scale},
        configs={
            name: config_by_name(name)
            for name in ("baseline",) + tuple(job.config_names)
        },
    )


#: Fig 9's cache-then-compute path, the case study's ``mapper``. A stored
#: task must carry every key ``simulate_task`` returns.
_TASK_KEYS = ("task_id", "baseline_cycles", "counters", "cycles")
_TASKS = CachedValues(
    label="fig9", kind="fig9", hits="fig9.cache_hits", key=_job_key,
    cell=attrgetter("task.video", "task.crf", "task.refs", "task.preset"),
    check=lambda task: {k: task[k] for k in _TASK_KEYS},
)


def run(scale: ExperimentScale = QUICK) -> Fig9Result:
    case_study = run_case_study(
        width=scale.width,
        height=scale.height,
        n_frames=scale.n_frames,
        data_capacity_scale=scale.data_capacity_scale,
        mapper=_TASKS,
    )
    return Fig9Result(case_study=case_study)
