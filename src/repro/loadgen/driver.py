"""The open-loop load-test driver: arrival schedules → TranscodeService.

:func:`run_loadtest` realizes a deterministic arrival schedule
(:mod:`repro.loadgen.arrivals`), samples a request per arrival from a
weighted workload mix (:mod:`repro.loadgen.mixes`), and *offers* the
stream to a :class:`~repro.service.service.TranscodeService` running on
a :class:`~repro.service.clock.VirtualClock`:

- **open loop** (default, wrk-style): every arrival is submitted at its
  scheduled instant no matter how far behind the service is. A full
  queue sheds the request (:class:`~repro.service.queue.QueueFullError`)
  and the driver counts it — offered vs. admitted vs. completed are the
  first-class accounting of the run, published as ``loadtest.*``
  counters and per-leg labeled ``loadtest.requests{outcome=…,leg=…}``.
- **closed loop**: admission waits for queue room, so load adapts to
  service speed and nothing is ever shed — the control that shows *why*
  closed-loop harnesses hide overload (coordinated omission).

The driver owns the arrival instants and nothing else: between arrivals
it loops on :meth:`~repro.service.service.TranscodeService.step` (bounded
by the next arrival), and the per-leg counts and latency samples are
read off the service's ledger (``service.queue.tally``), not recounted.

Each offered rate runs as one **leg** with a fresh service and a fresh
virtual clock; the baseline profile cache is shared across legs so a
multi-rate sweep pays each unique request's trace-encode exactly once.
Per-leg results carry queue-wait / e2e percentiles and the schedule's
SHA-256 digest, making the determinism contract (same spec ⇒ identical
run.json counts) directly checkable from artifacts.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any

from repro._util import from_fields, percentile
from repro.loadgen.arrivals import ArrivalProcess, make_arrivals
from repro.loadgen.mixes import WorkloadMix, make_mix
from repro.obs import session as obs
from repro.service.clock import VirtualClock
from repro.service.queue import QueueFullError
from repro.service.report import CostRatios
from repro.service.service import ServiceConfig, TranscodeService

__all__ = [
    "LegResult",
    "LoadtestReport",
    "LoadtestSpec",
    "run_loadtest",
]


@dataclass(frozen=True)
class LoadtestSpec:
    """Everything that shapes one load test (all legs)."""

    arrivals: str = "poisson"
    rates: tuple[float, ...] = (8.0,)
    duration_s: float = 30.0
    mix: str = "table3"
    seed: int = 0
    open_loop: bool = True
    #: Kind-specific arrival knobs (``amplitude`` / ``period_s`` for
    #: diurnal, ``burst`` / ``sojourn_s`` for mmpp).
    arrival_extras: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.rates:
            raise ValueError("loadtest needs at least one offered rate")
        if any(r <= 0 for r in self.rates):
            raise ValueError(f"offered rates must be > 0, got {self.rates}")
        if self.duration_s <= 0:
            raise ValueError(
                f"duration must be > 0 s, got {self.duration_s}"
            )
        # Unknown names fail here, through the owners' own lookups, so a
        # bad spec is refused before any leg runs.
        self.process(self.rates[0])
        self.workload()

    def process(self, rate: float) -> ArrivalProcess:
        """The arrival process for one leg at ``rate`` req/s."""
        return make_arrivals(
            self.arrivals, rate, seed=self.seed, **self.arrival_extras
        )

    def workload(self) -> WorkloadMix:
        """The resolved workload mix."""
        return make_mix(self.mix)

    def to_payload(self) -> dict[str, Any]:
        """Plain-JSON form for run.json metadata."""
        return {**asdict(self), "rates": list(self.rates)}


@dataclass
class LegResult(CostRatios):
    """One offered-rate leg's outcome."""

    rate: float
    arrivals: str                 # process description string
    schedule_digest: str
    offered: int
    admitted: int
    shed: int
    completed: int
    failed: int
    duration_s: float
    makespan_s: float             # virtual time until the queue drained
    queue_wait_p50_s: float
    queue_wait_p90_s: float
    queue_wait_p99_s: float
    e2e_p50_s: float
    e2e_p90_s: float
    e2e_p99_s: float
    cost_usd: float = 0.0          # busy-time dollars actually billed
    provisioned_usd: float = 0.0   # fleet hourly rate × leg makespan

    @property
    def achieved_rps(self) -> float:
        """Completions per virtual second over the leg's makespan."""
        if self.makespan_s <= 0:
            return 0.0
        return self.completed / self.makespan_s

    def to_payload(self) -> dict[str, Any]:
        """Plain-JSON form for run.json metadata: every field, with the
        derived rate after the makespan it divides by and the cost
        ratios last."""
        doc: dict[str, Any] = {}
        for key, value in asdict(self).items():
            doc[key] = value
            if key == "makespan_s":
                doc["achieved_rps"] = self.achieved_rps
        doc["cost_per_completed_usd"] = self.cost_per_completed_usd
        doc["jobs_per_dollar"] = self.jobs_per_dollar
        return doc


@dataclass
class LoadtestReport:
    """A whole load test: the spec plus one :class:`LegResult` per rate."""

    spec: LoadtestSpec
    legs: list[LegResult]

    def to_payload(self) -> dict[str, Any]:
        """Plain-JSON form, stored under run.json's ``meta.loadtest``."""
        return {
            "spec": self.spec.to_payload(),
            "legs": [leg.to_payload() for leg in self.legs],
        }

    @classmethod
    def from_payload(cls, payload: object) -> "LoadtestReport":
        """Inverse of :meth:`to_payload`: the derived leg keys are ignored,
        a missing or mistyped field raises ``ValueError``."""
        return from_fields(cls, payload, "meta.loadtest")

    def render(self) -> str:
        """The offered-rate vs. achieved-throughput/latency table."""
        head = (
            f"loadtest — {self.spec.arrivals} arrivals, mix={self.spec.mix}, "
            f"duration={self.spec.duration_s:g}s, seed={self.spec.seed}, "
            f"{'open' if self.spec.open_loop else 'closed'} loop"
        )
        cols = (
            f"{'offered/s':>10s} {'achieved/s':>10s} {'offered':>8s} "
            f"{'admitted':>8s} {'shed':>6s} {'done':>6s} {'failed':>6s} "
            f"{'wait p50':>9s} {'wait p99':>9s} {'e2e p50':>9s} "
            f"{'e2e p99':>9s} {'jobs/$':>9s}"
        )
        lines = [head, cols]
        for leg in self.legs:
            lines.append(
                f"{leg.rate:>10.2f} {leg.achieved_rps:>10.2f} "
                f"{leg.offered:>8d} {leg.admitted:>8d} {leg.shed:>6d} "
                f"{leg.completed:>6d} {leg.failed:>6d} "
                f"{leg.queue_wait_p50_s:>8.3f}s {leg.queue_wait_p99_s:>8.3f}s "
                f"{leg.e2e_p50_s:>8.3f}s {leg.e2e_p99_s:>8.3f}s "
                f"{leg.jobs_per_dollar:>9.0f}"
            )
        return "\n".join(lines)


def _run_leg(spec: LoadtestSpec, rate: float, config: ServiceConfig,
             profile_cache: dict, leg_index: int) -> LegResult:
    """Offer one leg's schedule to a fresh service and account for it."""
    process = spec.process(rate)
    schedule = process.schedule(spec.duration_s)
    requests = spec.workload().sample(len(schedule), seed=spec.seed)
    clock = VirtualClock()
    service = TranscodeService(
        config, profile_cache=profile_cache, clock=clock
    )
    leg_label = {"leg": str(leg_index)}
    admitted = shed = 0
    with obs.span("loadtest.leg", rate=rate, index=leg_index,
                  arrivals=process.describe()):
        for t_s, request in zip(schedule, requests):
            t_ns = int(round(t_s * 1e9))
            # Dispatch at every busy horizon crossed on the way to the
            # arrival (in real time those dispatches happen before it).
            while service.step(limit_ns=t_ns):
                pass
            clock.advance_to_ns(t_ns)
            if not spec.open_loop:
                # Closed loop: hold admission until the queue has room —
                # offered load adapts to service speed, nothing sheds
                # (unless the fleet is fully isolated; then submit sheds).
                while service.queue.full and service.step():
                    pass
            obs.inc("loadtest.offered")
            try:
                service.submit(request)
            except QueueFullError:
                shed += 1
                obs.inc("loadtest.shed")
                obs.inc("loadtest.requests",
                        labels={"outcome": "shed", **leg_label})
                continue
            admitted += 1
            obs.inc("loadtest.admitted")
            obs.inc("loadtest.requests",
                    labels={"outcome": "admitted", **leg_label})
            service.pump()
        service.run_until_idle()
    makespan_s = clock.now_ns() / 1e9
    tally = service.queue.tally    # the service's books, not a recount
    completed, failed = tally.completed, tally.failed
    obs.inc("loadtest.completed", completed)
    if completed:
        obs.inc("loadtest.requests", completed,
                labels={"outcome": "completed", **leg_label})
    if failed:
        obs.inc("loadtest.requests", failed,
                labels={"outcome": "failed", **leg_label})
    return LegResult(
        rate=rate,
        arrivals=process.describe(),
        schedule_digest=schedule.digest(),
        offered=len(schedule),
        admitted=admitted,
        shed=shed,
        completed=completed,
        failed=failed,
        duration_s=spec.duration_s,
        makespan_s=makespan_s,
        queue_wait_p50_s=percentile(tally.queue_wait_s, 50),
        queue_wait_p90_s=percentile(tally.queue_wait_s, 90),
        queue_wait_p99_s=percentile(tally.queue_wait_s, 99),
        e2e_p50_s=percentile(tally.e2e_s, 50),
        e2e_p90_s=percentile(tally.e2e_s, 90),
        e2e_p99_s=percentile(tally.e2e_s, 99),
        cost_usd=service.fleet.cost_usd(),
        provisioned_usd=service.fleet.hourly_rate * makespan_s / 3600.0,
    )


def run_loadtest(
    spec: LoadtestSpec | None = None,
    config: ServiceConfig | None = None,
) -> LoadtestReport:
    """Run one load test: every rate in ``spec.rates`` as its own leg
    (fresh service, fresh virtual clock, shared profile cache). Fully
    deterministic for a fixed ``(spec, config)``."""
    spec = spec or LoadtestSpec()
    config = config or ServiceConfig()
    profile_cache: dict = {}
    legs = [
        _run_leg(spec, rate, config, profile_cache, i)
        for i, rate in enumerate(spec.rates)
    ]
    report = LoadtestReport(spec, legs)
    tel = obs.current()
    if tel is not None:
        # `repro report` prints LoadtestReport.from_payload(this).render().
        tel.meta["loadtest"] = report.to_payload()
    return report
