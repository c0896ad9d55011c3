"""Fleet comparison driver: the same workload across heterogeneous fleets.

The serving-mode analogue of the per-instance-type tables in "Where to
Encode: x86 vs Arm EC2" and "Performance Analysis and Modeling of Video
Transcoding Using Heterogeneous Cloud Services": run one workload (the
paper's Table III mix, or any loadgen mix) across several fleet
definitions on a virtual clock, under cost-aware smart placement *and*
the seeded random control, and tabulate throughput per provisioned
dollar, p99 end-to-end latency, and cost per completed job for each
fleet.

:data:`EXAMPLE_FLEETS` ships four definitions — an all-x86 fleet, an
all-Arm fleet, a mixed-ISA fleet, and the paper's legacy Table IV
config fleet — each internally heterogeneous so placement quality is
visible in the cost numbers. The shipped calibration reproduces the
cited papers' qualitative ordering: the Arm fleets win throughput/$ by
roughly 1.5-2x over the x86 fleets at equal completion counts.

The whole comparison is deterministic for a fixed seed (virtual clock,
seeded control, hashed placement), and the report lands in run.json
under ``meta.fleet_compare`` when run inside a telemetry session, where
``repro report`` prints its table and ``repro report --diff`` diffs
throughput/$ between runs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any

from repro._util import from_fields
from repro.obs import session as obs
from repro.service.clock import VirtualClock
from repro.service.service import ServiceConfig, TranscodeService, table3_requests
from repro.service.workers import parse_fleet_spec

__all__ = [
    "EXAMPLE_FLEETS",
    "FleetCompareReport",
    "FleetDef",
    "FleetResult",
    "run_fleet_compare",
]


@dataclass(frozen=True)
class FleetDef:
    """One named fleet definition: a label plus its fleet-spec string."""

    name: str
    spec: str
    description: str = ""

    def __post_init__(self) -> None:
        parse_fleet_spec(self.spec)  # fail fast on bad specs


#: The shipped comparison matrix (each fleet internally heterogeneous).
EXAMPLE_FLEETS: tuple[FleetDef, ...] = (
    FleetDef(
        name="x86",
        spec="c5.xlarge,m5.xlarge",
        description="all-x86: compute- plus memory-optimized (4 cores)",
    ),
    FleetDef(
        name="arm",
        spec="c6g.xlarge,a1.xlarge",
        description="all-Arm: Graviton2-class plus first-gen (8 cores)",
    ),
    FleetDef(
        name="mixed",
        spec="c5.xlarge,c6g.xlarge",
        description="mixed-ISA: x86 compute plus Arm compute (6 cores)",
    ),
    FleetDef(
        name="table4",
        spec="fe_op,be_op1,be_op2,bs_op",
        description="the paper's Table IV config fleet (legacy pricing)",
    ),
)


@dataclass
class FleetResult:
    """One fleet's outcome under smart placement, with the random control."""

    fleet: FleetDef
    workers: int
    hourly_usd: float
    completed: int
    failed: int
    jobs_per_dollar: float
    e2e_p99_s: float
    cost_per_completed_usd: float
    makespan_s: float
    control_cost_per_completed_usd: float
    control_jobs_per_dollar: float
    control_e2e_p99_s: float

    @property
    def cost_margin_vs_control_pct(self) -> float:
        """How much cheaper per completed job smart placement is than
        the random control, in percent (positive = smart cheaper)."""
        if self.control_cost_per_completed_usd <= 0:
            return 0.0
        return 100.0 * (
            1.0 - self.cost_per_completed_usd
            / self.control_cost_per_completed_usd
        )

    def to_payload(self) -> dict[str, Any]:
        """Plain-JSON form for ``meta.fleet_compare``: every field (the
        fleet as its own payload) plus the derived margin."""
        return {
            **asdict(self),
            "cost_margin_vs_control_pct": self.cost_margin_vs_control_pct,
        }


@dataclass
class FleetCompareReport:
    """A whole fleet comparison: the knobs plus one row per fleet."""

    objective: str
    mix: str
    count: int
    seed: int
    deadline_s: float | None
    budget_usd: float | None
    results: list[FleetResult] = field(default_factory=list)

    def ranked(self) -> list[FleetResult]:
        """Results ordered by throughput per dollar, best first."""
        return sorted(
            self.results, key=lambda r: r.jobs_per_dollar, reverse=True
        )

    def to_payload(self) -> dict[str, Any]:
        """Plain-JSON form, stored under run.json's ``meta.fleet_compare``:
        the knobs, then the rows as ``fleets``."""
        doc = asdict(self)
        del doc["results"]
        return {**doc, "fleets": [r.to_payload() for r in self.results]}

    @classmethod
    def from_payload(cls, payload: object) -> "FleetCompareReport":
        """Inverse of :meth:`to_payload`: the derived margin is ignored,
        a missing or mistyped field raises ``ValueError``."""
        return from_fields(cls, payload, "meta.fleet_compare",
                           keys={"results": "fleets"})

    def render(self) -> str:
        """The per-fleet throughput/$ / latency / cost-per-job table."""
        head = (
            f"fleet-compare — objective={self.objective}, mix={self.mix}, "
            f"jobs={self.count}, seed={self.seed}"
            + (f", deadline={self.deadline_s:g}s"
               if self.deadline_s is not None else "")
            + (f", budget=${self.budget_usd:g}/h"
               if self.budget_usd is not None else "")
        )
        cols = (
            f"{'fleet':>8s} {'workers':>7s} {'$/hour':>8s} {'done':>5s} "
            f"{'failed':>6s} {'jobs/$':>10s} {'e2e p99':>9s} {'$/job':>12s} "
            f"{'vs random':>10s}"
        )
        lines = [head, cols]
        for r in self.ranked():
            lines.append(
                f"{r.fleet.name:>8s} {r.workers:>7d} "
                f"{r.hourly_usd:>8.3f} {r.completed:>5d} {r.failed:>6d} "
                f"{r.jobs_per_dollar:>10.0f} {r.e2e_p99_s:>8.3f}s "
                f"{r.cost_per_completed_usd:>12.8f} "
                f"{r.cost_margin_vs_control_pct:>+9.1f}%"
            )
        best = self.ranked()[0] if self.results else None
        if best is not None:
            lines.append(
                f"best throughput/$: {best.fleet.name} "
                f"({best.fleet.description})"
            )
        return "\n".join(lines)


def run_fleet_compare(
    fleets: tuple[FleetDef, ...] | None = None,
    *,
    objective: str = "min-cost",
    mix: str = "table3",
    count: int = 16,
    seed: int = 0,
    deadline_s: float | None = None,
    budget_usd: float | None = None,
    width: int = 112,
    height: int = 64,
    n_frames: int = 10,
) -> FleetCompareReport:
    """Run one workload across several fleets, smart vs. random control.

    Every fleet sees the identical request list on a fresh
    :class:`~repro.service.clock.VirtualClock`; the baseline profile
    cache is shared across fleets *and* policies, so each unique request
    is trace-encoded exactly once for the whole comparison. Deterministic
    for a fixed ``(fleets, objective, mix, count, seed)``.
    """
    fleets = fleets if fleets is not None else EXAMPLE_FLEETS
    if not fleets:
        raise ValueError("fleet-compare needs at least one fleet")
    if mix == "table3":   # Table III cycling; anything else is a loadgen mix
        requests = table3_requests(count)
    else:
        from repro.loadgen.mixes import make_mix

        requests = make_mix(mix).sample(count, seed=seed)
    report = FleetCompareReport(
        objective=objective, mix=mix, count=count, seed=seed,
        deadline_s=deadline_s, budget_usd=budget_usd,
    )
    profile_cache: dict = {}
    sizing = dict(width=width, height=height, n_frames=n_frames)
    with obs.span("fleet_compare", fleets=len(fleets), objective=objective,
                  mix=mix, count=count):
        for fleet in fleets:
            runs: dict[str, Any] = {}
            for policy in ("smart", "random"):
                config = ServiceConfig(
                    fleet=parse_fleet_spec(fleet.spec),
                    policy=policy,
                    objective=objective if policy == "smart" else "throughput",
                    deadline_s=deadline_s if policy == "smart" else None,
                    budget_usd=budget_usd if policy == "smart" else None,
                    seed=seed,
                    queue_capacity=max(64, count),
                    **sizing,
                )
                service = TranscodeService(
                    config, profile_cache=profile_cache, clock=VirtualClock()
                )
                with obs.span("fleet_compare.run", fleet=fleet.name,
                              policy=policy):
                    service.submit_many(requests)
                    service.run_until_idle()
                    runs[policy] = service.report()
            smart, control = runs["smart"], runs["random"]
            result = FleetResult(
                fleet=fleet,
                workers=len(service.fleet.workers),   # same spec both runs
                hourly_usd=smart.fleet_hourly_usd,
                completed=smart.completed,
                failed=smart.failed,
                jobs_per_dollar=smart.jobs_per_dollar,
                e2e_p99_s=smart.e2e_p99_s,
                cost_per_completed_usd=smart.cost_per_completed_usd,
                makespan_s=smart.makespan_s,
                control_cost_per_completed_usd=control.cost_per_completed_usd,
                control_jobs_per_dollar=control.jobs_per_dollar,
                control_e2e_p99_s=control.e2e_p99_s,
            )
            report.results.append(result)
            obs.set_gauge(
                f"fleet_compare.{fleet.name}.jobs_per_dollar",
                result.jobs_per_dollar,
            )
            obs.set_gauge(
                f"fleet_compare.{fleet.name}.cost_per_completed_usd",
                result.cost_per_completed_usd,
            )
    tel = obs.current()
    if tel is not None:
        # `repro report` prints FleetCompareReport.from_payload(this).render().
        tel.meta["fleet_compare"] = report.to_payload()
    return report
