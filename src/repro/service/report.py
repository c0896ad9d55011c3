"""What a service run reports: :class:`ServiceReport` and its assembly.

:func:`summarize` is the once-per-run summary ``TranscodeService.report``
returns: counts, e2e percentile and makespan start come off the ledger's
:class:`~repro.service.queue.Tally`; the per-job status list, the
placement map and the latency / speedup means take one pass over
``queue.jobs()`` in admission order. It only reads: the
``service.<policy>.*`` gauges are published once, by
:func:`~repro.service.service.run_service`. :class:`CostRatios` is the
one place the dollars-per-job and jobs-per-dollar ratios are written —
the service report and the load generator's per-leg result both inherit
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro._util import percentile
from repro.api.types import JobStatus
from repro.service.queue import BoundedJobQueue
from repro.service.workers import WorkerFleet

__all__ = ["CostRatios", "ServiceReport", "summarize"]


class CostRatios:
    """Cost ratios over a record's ``completed``, ``cost_usd`` (billed
    busy time) and ``provisioned_usd`` (fleet $/hour x makespan)."""

    @property
    def cost_per_completed_usd(self) -> float:
        """Billed dollars per completed job (0 when nothing completed)."""
        if self.completed <= 0:
            return 0.0
        return self.cost_usd / self.completed

    @property
    def jobs_per_dollar(self) -> float:
        """Throughput per provisioned dollar: completed jobs over what
        the fleet cost to rent for the run's makespan."""
        if self.provisioned_usd <= 0:
            return 0.0
        return self.completed / self.provisioned_usd


@dataclass
class ServiceReport(CostRatios):
    """One service run's outcome, with an optional control run attached."""

    policy: str
    jobs_total: int
    completed: int
    failed: int
    mean_latency_cycles: float
    mean_speedup_pct: float
    worker_crashes: int
    placements: dict[int, str]       # job_id -> "worker (config)"
    objective: str = "throughput"
    #: Dollars actually billed for worker occupancy (busy time x rate).
    cost_usd: float = 0.0
    #: The fleet's provisioned $/hour and what the run's makespan cost
    #: at that rate — the denominator of throughput-per-dollar.
    fleet_hourly_usd: float = 0.0
    makespan_s: float = 0.0
    provisioned_usd: float = 0.0
    e2e_p99_s: float = 0.0
    statuses: list[JobStatus] = field(repr=False, default_factory=list)
    control: "ServiceReport | None" = None

    @property
    def margin_vs_control_pp(self) -> float | None:
        """Mean-speedup margin over the control policy, in percentage
        points (the serving-mode analogue of the paper's 3.72%)."""
        if self.control is None:
            return None
        return self.mean_speedup_pct - self.control.mean_speedup_pct

    def to_payload(self) -> dict[str, Any]:
        """Plain-JSON form (the ``jobs.json`` status artifact)."""
        doc: dict[str, Any] = {
            "policy": self.policy,
            "jobs_total": self.jobs_total,
            "completed": self.completed,
            "failed": self.failed,
            "mean_latency_cycles": self.mean_latency_cycles,
            "mean_speedup_pct": self.mean_speedup_pct,
            "worker_crashes": self.worker_crashes,
            "objective": self.objective,
            "cost_usd": self.cost_usd,
            "fleet_hourly_usd": self.fleet_hourly_usd,
            "makespan_s": self.makespan_s,
            "provisioned_usd": self.provisioned_usd,
            "cost_per_completed_usd": self.cost_per_completed_usd,
            "jobs_per_dollar": self.jobs_per_dollar,
            "e2e_p99_s": self.e2e_p99_s,
            "placements": {str(k): v for k, v in self.placements.items()},
            "jobs": [s.to_payload() for s in self.statuses],
        }
        if self.control is not None:
            doc["margin_vs_control_pp"] = self.margin_vs_control_pp
            doc["control"] = self.control.to_payload()
        return doc

    def render(self) -> str:
        """Human-readable summary for ``repro serve``."""
        lines = [
            f"service run — policy={self.policy}: "
            f"{self.completed}/{self.jobs_total} jobs completed"
            + (f", {self.failed} failed" if self.failed else ""),
            f"  mean job latency: {self.mean_latency_cycles:,.0f} cycles",
            f"  mean speedup over baseline: {self.mean_speedup_pct:+.2f}%",
        ]
        if self.cost_usd > 0:
            lines.append(
                f"  cost: ${self.cost_usd:.6f} billed "
                f"(${self.cost_per_completed_usd:.6f}/job, fleet "
                f"${self.fleet_hourly_usd:.3f}/h, objective="
                f"{self.objective})"
            )
        if self.worker_crashes:
            lines.append(
                f"  worker crashes isolated: {self.worker_crashes}"
            )
        for status in self.statuses:
            placed = self.placements.get(status.job_id, "-")
            lines.append(
                f"    job {status.job_id}: {status.clip} "
                f"preset={status.preset} crf={status.crf} -> "
                f"{status.state} on {placed}"
                + (f" [{status.error}]" if status.error else "")
            )
        if self.control is not None:
            lines.append("")
            lines.append(
                f"control ({self.control.policy}): mean speedup "
                f"{self.control.mean_speedup_pct:+.2f}%, mean latency "
                f"{self.control.mean_latency_cycles:,.0f} cycles"
            )
            lines.append(
                f"{self.policy} - {self.control.policy} = "
                f"{self.margin_vs_control_pp:+.2f} pp (paper: +3.72)"
            )
        return "\n".join(lines)


def summarize(
    queue: BoundedJobQueue,
    fleet: WorkerFleet,
    *,
    policy: str,
    objective: str,
    worker_crashes: int,
) -> ServiceReport:
    """Summarize a run off the ledger; publishes nothing."""
    tally = queue.tally
    jobs = queue.jobs()
    done = [j for j in jobs if j.result is not None]
    latencies = [j.latency_cycles for j in done]
    speedups = [s for s in (j.result.speedup_pct for j in done) if s is not None]
    # Means over admission order, as np.mean sums them: a running sum in
    # completion order would differ in the last bit after a requeue.
    mean_latency = float(np.mean(latencies)) if latencies else 0.0
    mean_speedup = float(np.mean(speedups)) if speedups else 0.0
    # Makespan: first admission to the last worker's busy horizon —
    # what the whole fleet had to stay rented for.
    makespan_s = 0.0
    if tally.first_submitted_ns is not None:
        last = max(w.busy_until_ns for w in fleet.workers)
        makespan_s = max(0, last - tally.first_submitted_ns) / 1e9
    cost_usd = fleet.cost_usd()
    hourly = fleet.hourly_rate
    return ServiceReport(
        policy=policy,
        jobs_total=len(jobs),
        completed=tally.completed,
        failed=tally.failed,
        mean_latency_cycles=mean_latency,
        mean_speedup_pct=mean_speedup,
        worker_crashes=worker_crashes,
        objective=objective,
        cost_usd=cost_usd,
        fleet_hourly_usd=hourly,
        makespan_s=makespan_s,
        provisioned_usd=hourly * makespan_s / 3600.0,
        e2e_p99_s=percentile(tally.e2e_s, 99),
        placements={
            j.job_id: f"{j.worker} ({j.result.config})"
            for j in done if j.worker is not None
        },
        statuses=[j.status() for j in jobs],
    )
