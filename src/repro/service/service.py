"""The long-lived transcoding job service: queue → placement → fleet.

:class:`TranscodeService` accepts typed
:class:`~repro.api.types.TranscodeRequest` submissions through a bounded
queue (backpressure via :class:`~repro.service.queue.QueueFullError`),
profiles each job once on the *baseline* configuration, and dispatches
rounds of jobs onto a heterogeneous fleet of warm workers — each pinned
to one Table IV µarch config — using an online placement policy
(:mod:`repro.service.placement`).

The dispatch model is synchronous with **continuous admission**: jobs
are admitted the moment they arrive and placed by :meth:`TranscodeService.pump`
onto whichever workers are *free right now* (priority-major order) — no
round barrier waits for the whole fleet to drain. Each worker carries a
busy horizon (:attr:`~repro.service.workers.Worker.busy_until_ns`) on
the service clock (:mod:`repro.service.clock`): always in the past under
the wall clock, charged with simulated encode time under a virtual one,
which is what lets :mod:`repro.loadgen` drive sustained-traffic
scenarios in milliseconds of wall time, deterministically.

Who owns what: a job's state belongs to the ledger
(:class:`~repro.service.queue.BoundedJobQueue`) — this module never
assigns it, it asks the queue to ``start`` / ``requeue`` / ``finish``.
Every way a job can end (done, crashed out of its placement budget, no
worker left, shed as infeasible, unplaced by the policy) goes through
:meth:`TranscodeService._finish`, so the ``e2e_s`` stamp, the labeled
``service.stage_latency_s`` histograms and the deadline counters the SLO
engine (:mod:`repro.obs.slo`) reads cannot be skipped by a new way to
fail. Every "nothing placed, move time forward" decision is
:meth:`TranscodeService.step` — :meth:`~TranscodeService.run_until_idle`
and the load generator both loop on it. The run summary is assembled in
:mod:`repro.service.report`.

Resilience reuses the PR-3 layer: retryable exceptions re-execute in
place under the configured :class:`~repro.resilience.retry.RetryPolicy`;
a worker whose job still fails is marked crash-suspect and isolated, and
the job is re-placed on a different worker until its placement budget is
spent. Queue state is checkpointed atomically after every round so a
restarted service (``resume=True``) re-runs only unfinished jobs.

Observability: every job carries a ``trace_id`` and its spans
(``service.submit`` → ``service.place`` → ``service.job`` →
``worker.encode``) are tagged with the job id, so ``repro report
--timeline JOB_ID`` renders one job's flame graph; everything lands in
``run.json`` under a telemetry session (``repro serve --telemetry OUT/``).
"""

from __future__ import annotations

import json
import uuid
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from repro._util import atomic_write_text
from repro.api.types import (
    JOB_FAILED,
    QUICK_SIZING,
    JobStatus,
    TranscodeRequest,
    TranscodeResult,
)
from repro.obs import session as obs
from repro.obs.metrics import latency_buckets
from repro.profiling.counters import CounterSet
from repro.profiling.perf import record_trace
from repro.resilience.retry import call_with_retry, retry_policy
from repro.scheduling.task import TABLE_III_TASKS
from repro.service.clock import Clock, WallClock
from repro.service.jobs import Job
from repro.service.placement import (
    OBJECTIVES,
    PLACEMENT_POLICIES,
    SmartPlacement,
    make_policy,
)
from repro.service.queue import BoundedJobQueue
from repro.service.report import ServiceReport, summarize
from repro.service.workers import DEFAULT_FLEET, WorkerFleet, parse_fleet_spec
from repro.uarch.configs import config_by_name
from repro.uarch.simulator import simulate
from repro.video.vbench import cached_video

__all__ = [
    "ServiceConfig",
    "ServiceReport",
    "TranscodeService",
    "run_service",
    "table3_requests",
]


@dataclass(frozen=True)
class ServiceConfig:
    """Everything that shapes one service instance."""

    #: Fleet members: Table IV config names and/or parsed
    #: :class:`~repro.service.workers.FleetEntry` clauses (instance
    #: types expand to one worker per physical core).
    fleet: tuple = DEFAULT_FLEET
    policy: str = "smart"
    #: Smart-placement Pareto objective: ``throughput`` (seeded
    #: affinity behaviour), ``min-cost`` (dollars under the deadline),
    #: or ``min-latency`` (seconds under the $/hour budget).
    objective: str = "throughput"
    #: Policy-wide latency deadline in virtual seconds (a request's own
    #: ``deadline_ms`` overrides it per job).
    deadline_s: float | None = None
    #: Per-worker $/hour budget: cost-aware placement never uses a
    #: worker billed above this rate.
    budget_usd: float | None = None
    seed: int = 0
    queue_capacity: int = 64
    max_attempts: int = 3            # placement attempts per job
    width: int = 112                 # proxy clip sizing (casestudy scale)
    height: int = 64
    n_frames: int = 10
    data_capacity_scale: float = 48.0
    checkpoint_path: Path | None = None
    #: Virtual core frequency: simulated cycles charged per virtual
    #: second when the service runs on a VirtualClock (quick-scale proxy
    #: encodes land at a few hundred kilocycles, i.e. fractions of a
    #: virtual second at 1 MHz). Ignored under the wall clock, where
    #: stage durations are measured rather than charged.
    clock_hz: float = 1.0e6

    def __post_init__(self) -> None:
        if self.policy not in PLACEMENT_POLICIES:
            raise ValueError(
                f"unknown placement policy {self.policy!r}; "
                f"choose from {', '.join(PLACEMENT_POLICIES)}"
            )
        if self.objective not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {self.objective!r}; "
                f"choose from {', '.join(OBJECTIVES)}"
            )
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.clock_hz <= 0:
            raise ValueError("clock_hz must be > 0")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be > 0")
        if self.budget_usd is not None and self.budget_usd <= 0:
            raise ValueError("budget_usd must be > 0")

    @classmethod
    def from_settings(
        cls, settings, *, quick: bool = False, **fields: object
    ) -> "ServiceConfig":
        """The config a resolved :class:`repro.api.Settings` describes —
        its ``fleet`` spec parsed (unset: the default fleet), its
        ``objective`` — with the per-run ``fields`` on top and
        :data:`QUICK_SIZING` proxy clips under ``quick``."""
        if settings.fleet is not None:
            fields["fleet"] = parse_fleet_spec(settings.fleet)
        sizing = QUICK_SIZING if quick else {}
        return cls(objective=settings.objective, **{**sizing, **fields})  # type: ignore[arg-type]


def table3_requests(count: int = len(TABLE_III_TASKS)) -> list[TranscodeRequest]:
    """``count`` requests cycling the paper's Table III task mix."""
    if count < 1:
        raise ValueError("count must be >= 1")
    tasks = (TABLE_III_TASKS[i % len(TABLE_III_TASKS)] for i in range(count))
    return [
        TranscodeRequest(clip=t.video, preset=t.preset, crf=t.crf, refs=t.refs)
        for t in tasks
    ]


@dataclass
class _ProfiledJob:
    """Warm per-job state: one traced encode, replayable on any config."""

    stream: Any
    program: Any
    counters: CounterSet
    baseline_cycles: float
    encode_seconds: float


class TranscodeService:
    """A long-lived transcoding job service over a warm worker fleet.

    Synchronous in-process client: :meth:`submit` admits requests,
    :meth:`run_until_idle` drains the queue, :meth:`status` /
    :meth:`statuses` / :meth:`report` observe the outcome. The CLI's
    ``repro serve`` wraps exactly this object.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        resume: bool = False,
        profile_cache: dict[tuple, _ProfiledJob] | None = None,
        clock: Clock | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.clock = clock if clock is not None else WallClock()
        self.queue = BoundedJobQueue(
            self.config.queue_capacity, clock=self.clock
        )
        self.fleet = WorkerFleet(
            self.config.fleet,
            data_capacity_scale=self.config.data_capacity_scale,
            clock_hz=self.config.clock_hz,
        )
        self.policy = make_policy(
            self.config.policy,
            seed=self.config.seed,
            objective=self.config.objective,
            deadline_s=self.config.deadline_s,
            budget_usd=self.config.budget_usd,
        )
        if isinstance(self.policy, SmartPlacement):
            self.policy.bind_fleet(self.fleet.workers)
        self.worker_crashes = 0
        self._next_id = 1
        self._next_seq = 0
        # Shared across service instances (e.g. a control run) so each
        # unique request is traced and baseline-profiled exactly once.
        self._profiles = profile_cache if profile_cache is not None else {}
        self._baseline = config_by_name(
            "baseline", data_capacity_scale=self.config.data_capacity_scale
        )
        if resume:
            self._restore_checkpoint()

    # -- submission ----------------------------------------------------
    def submit(self, request: TranscodeRequest) -> JobStatus:
        """Admit one request; raises
        :class:`~repro.service.queue.QueueFullError` at capacity."""
        job = Job(job_id=self._next_id, request=request, seq=self._next_seq)
        tel = obs.current()
        base = tel.trace_id if tel is not None else uuid.uuid4().hex[:12]
        job.trace_id = f"{base}-j{job.job_id}"
        with obs.span("service.submit", job=job.job_id, clip=request.clip,
                      trace=job.trace_id):
            self.queue.put(job)
        self._next_id += 1
        self._next_seq += 1
        obs.inc("service.jobs_submitted")
        self._write_checkpoint()
        return job.status()

    def submit_many(
        self, requests: list[TranscodeRequest]
    ) -> list[JobStatus]:
        """Admit several requests (stops at the first rejection)."""
        return [self.submit(r) for r in requests]

    # -- the dispatch loop ---------------------------------------------
    def pump(self) -> int:
        """One continuous-admission dispatch pass: place every queued job
        a currently-free worker can take, execute the placements, and
        return how many jobs ran.

        Queue wait ends — and is stamped — the instant the placement
        decision lands, so ``queue_wait_s == placement_time -
        admission_time`` by construction. Returns 0 when nothing is
        dispatchable right now:
        the queue is empty, every free worker is busy until later on the
        service clock, or every worker is isolated.
        """
        executed = 0
        while self.queue.pending():
            now = self.clock.now_ns()
            free = self.fleet.free(now)
            if not free:
                break
            batch = self.queue.pop_ready(len(free))
            counters = {
                job.job_id: self._profile(job).counters for job in batch
            }
            place_start = self.clock.now_ns()
            with obs.span("service.place", policy=self.policy.name,
                          batch=len(batch)):
                placement = self.policy.place(batch, free, counters)
            placed_at = self.clock.now_ns()
            place_s = (placed_at - place_start) / 1e9
            # More jobs than free workers, or no feasible worker: the
            # rest of the batch goes back under its original keys.
            placed = [job for job in batch if job.job_id in placement]
            self.queue.put_back(
                [job for job in batch if job.job_id not in placement]
            )
            for job in placed:
                # The placement decision is shared by the whole batch;
                # each placed member waited for all of it.
                job.add_timing("placement_s", place_s)
                if job.enqueued_ns is not None:
                    job.add_timing(
                        "queue_wait_s", (placed_at - job.enqueued_ns) / 1e9
                    )
                self._execute(job, placement[job.job_id], placed_at)
            executed += len(placed)
            self._write_checkpoint()
            if not placed:  # policy placed nothing; avoid spinning
                break
        return executed

    def step(self, limit_ns: int | None = None) -> bool:
        """One unit of progress on pending work: :meth:`pump`, and if
        nothing ran, advance the clock to the next *future* busy horizon
        of an available worker (under cost-aware objectives a queued job
        may be *waiting* for a cheaper or deadline-feasible busy one),
        never past ``limit_ns``. ``False`` means nothing moved: whatever
        is pending cannot be placed before ``limit_ns``. Under the wall
        clock horizons are already past, so this is just :meth:`pump`.
        """
        if not self.queue.pending():
            return False
        if self.pump():
            return True
        now = self.clock.now_ns()
        horizon = min(
            (w.busy_until_ns for w in self.fleet.available()
             if w.busy_until_ns > now),
            default=None,
        )
        if horizon is None or (limit_ns is not None and horizon > limit_ns):
            return False
        self.clock.advance_to_ns(horizon)
        return True

    def run_until_idle(self) -> ServiceReport:
        """Dispatch until no job is pending, then report.

        Repeats :meth:`step`; jobs still pending when it can move
        nothing — every worker crash-suspect, or free workers the policy
        will not use — finish ``failed``, as do jobs that exhaust their
        placement budget; the service itself never raises for job-level
        trouble.
        """
        with obs.span("service.drain", policy=self.policy.name):
            while self.step():
                pass
            self._fail_pending()
        return self.report()

    def _fail_pending(self) -> None:
        """Fail what is left once nothing will change on its own rather
        than spinning forever. Under a cost-aware objective this is the
        explicit shed path: the job had no worker satisfying its
        deadline/budget constraints."""
        if not self.queue.pending():
            return
        shed = False
        if not self.fleet.available():
            error = "no workers available (all isolated)"
        elif (isinstance(self.policy, SmartPlacement)
                and self.policy.objective != "throughput"):
            shed = True
            error = (
                "shed: no feasible worker under "
                f"{self.policy.objective} constraints "
                f"(deadline_s={self.policy.deadline_s}, "
                f"budget_usd={self.policy.budget_usd})"
            )
        else:
            error = "placement policy returned no placement"
        now = self.clock.now_ns()
        for job in self.queue.pop_ready(self.queue.pending()):
            if shed:
                obs.inc("service.jobs_shed_infeasible")
            self._finish(job, None, now, error)
        self._write_checkpoint()

    def _charge_ns(self, cycles: float, worker) -> int:
        """Simulated-time cost of ``cycles`` on ``worker``'s virtual
        clock (instance cores run at their family's relative frequency,
        so identical cycle counts convert to different durations)."""
        return int(round(cycles / worker.clock_hz * 1e9))

    def _occupy(self, job: Job, worker, start_ns: int, busy_ns: int) -> int:
        """Bill ``busy_ns`` of ``worker`` occupancy from ``start_ns`` to
        ``job`` and the run's cost counters (crashed attempts are still
        paid for), push the worker's busy horizon, and return the instant
        the occupancy ends."""
        if busy_ns > 0:
            cost = worker.charge(busy_ns)
            job.cost_usd += cost
            obs.observe("service.job_cost_usd", cost)
        done_ns = start_ns + busy_ns
        worker.busy_until_ns = max(worker.busy_until_ns, done_ns)
        return done_ns

    def _execute(self, job: Job, worker, start_ns: int) -> None:
        """Run one placed job, with in-place retries and crash isolation.

        Every execution attempt is individually costed: the successful
        attempt's duration is the job's ``encode_s``, everything burned
        before it (failed attempts on this worker) plus the whole budget
        of a crashed placement counts as ``retry_overhead_s``. Under the
        wall clock those costs are measured; under a virtual clock they
        are *charged* deterministically — ``cycles / clock_hz`` for the
        successful attempt, the job's baseline cycles for each failed
        one (the work ran, then died) — and pushed onto the worker's
        busy horizon so parallel workers overlap correctly in simulated
        time.
        """
        profiled = self._profile(job)
        self.queue.start(job, worker.name)
        attempt_ns: list[int] = []

        def _attempt() -> float:
            start = self.clock.now_ns()
            try:
                return worker.execute(job, profiled.stream, profiled.program)
            finally:
                attempt_ns.append(self.clock.now_ns() - start)

        virtual = self.clock.virtual
        fail_charge = self._charge_ns(profiled.baseline_cycles, worker)
        with obs.span(
            "service.job",
            job=job.job_id,
            clip=job.request.clip,
            worker=worker.name,
            config=worker.config_name,
            policy=self.policy.name,
            attempt=job.attempts,
            trace=job.trace_id,
        ):
            try:
                cycles = call_with_retry(
                    _attempt,
                    policy=retry_policy(),
                    token=f"service.job.{job.job_id}",
                    label="service.worker",
                )
            except Exception as exc:
                wasted_ns = (len(attempt_ns) * fail_charge if virtual
                             else sum(attempt_ns))
                job.add_timing("retry_overhead_s", wasted_ns / 1e9)
                done_ns = self._occupy(job, worker, start_ns, wasted_ns)
                self._on_worker_crash(job, worker, exc, done_ns)
                return
        if virtual:
            encode_ns = self._charge_ns(cycles, worker)
            wasted_ns = (len(attempt_ns) - 1) * fail_charge
        else:
            encode_ns = attempt_ns[-1]
            wasted_ns = sum(attempt_ns[:-1])
        job.add_timing("encode_s", encode_ns / 1e9)
        if wasted_ns:
            job.add_timing("retry_overhead_s", wasted_ns / 1e9)
        done_ns = self._occupy(job, worker, start_ns, wasted_ns + encode_ns)
        self._finish(job, worker, done_ns, TranscodeResult(
            clip=job.request.clip,
            preset=job.request.preset,
            crf=job.request.crf,
            refs=job.request.refs,
            psnr_db=profiled.counters.psnr_db,
            bitrate_kbps=profiled.counters.bitrate_kbps,
            encode_seconds=profiled.encode_seconds,
            cycles=cycles,
            config=worker.config_name,
            baseline_cycles=profiled.baseline_cycles,
        ))

    def _on_worker_crash(self, job: Job, worker, exc: Exception,
                         done_ns: int) -> None:
        """Isolate a crashed worker and re-place (or fail) its job.

        ``done_ns`` is the service-clock instant the crashed placement
        gave up (virtual completion of the wasted attempts); it stamps
        the failed job's e2e latency and the requeue moment.
        """
        self.fleet.isolate(worker)
        self.worker_crashes += 1
        obs.inc("service.worker_crashes")
        error = f"{type(exc).__name__}: {exc} (worker {worker.name} isolated)"
        if job.attempts >= self.config.max_attempts or not self.fleet.available():
            self._finish(job, worker, done_ns, error)
        else:
            self.queue.requeue(job, error, now_ns=done_ns)

    def _finish(self, job: Job, worker, done_ns: int,
                outcome: TranscodeResult | str) -> None:
        """The one terminal transition: stamp ``e2e_s`` at ``done_ns``,
        enter the job in the ledger as ``done`` (a result) or ``failed``
        (an error string), and publish its counters and stage metrics.
        ``worker`` is ``None`` for a job that fails without a placement.
        """
        if job.submitted_ns is not None:
            job.timings["e2e_s"] = (done_ns - job.submitted_ns) / 1e9
        self.queue.finish(job, outcome)
        if isinstance(outcome, str):
            obs.inc("service.jobs_failed")
        else:
            obs.inc("service.jobs_completed")
            obs.observe("service.job_latency_cycles", outcome.cycles)
            if outcome.speedup_pct is not None:
                obs.observe("service.job_speedup_pct", outcome.speedup_pct)
        self._record_stage_metrics(job, worker)

    #: ``Job.timings`` keys published as stages (label: key minus ``_s``).
    _STAGES = ("queue_wait_s", "placement_s", "encode_s",
               "retry_overhead_s", "e2e_s")

    def _record_stage_metrics(self, job: Job, worker) -> None:
        """Publish a terminal job's latency decomposition: one labeled
        ``service.stage_latency_s`` histogram sample per recorded stage
        (keyed by stage / µarch config / policy / instance family;
        ``unplaced`` for a job that never reached a worker), plus the
        deadline accounting the SLO engine's ``deadline_miss_rate``
        kind reads."""
        buckets = latency_buckets()
        labels = {
            "config": worker.config_name if worker else "unplaced",
            "policy": self.policy.name,
            "instance": worker.instance_name if worker else "unplaced",
        }
        for key in self._STAGES:
            if key in job.timings:
                obs.observe(
                    "service.stage_latency_s", job.timings[key],
                    labels={"stage": key.removesuffix("_s"), **labels},
                    bounds=buckets,
                )
        deadline_ms = job.request.deadline_ms
        if deadline_ms is not None:
            obs.inc("service.jobs_with_deadline")
            e2e_s = job.timings.get("e2e_s", 0.0)
            if job.state == JOB_FAILED or e2e_s * 1000.0 > deadline_ms:
                obs.inc("service.deadline_misses")

    # -- profiling (once per unique request) ---------------------------
    def _profile(self, job: Job) -> _ProfiledJob:
        """Trace-encode the job's clip once and profile it on the
        baseline config; cached on the request's content key."""
        key = job.request.content_key() + (
            self.config.width, self.config.height, self.config.n_frames,
            self.config.data_capacity_scale,
        )
        cached = self._profiles.get(key)
        if cached is not None:
            obs.inc("service.profile_hits")
            return cached
        with obs.span("service.profile", job=job.job_id,
                      clip=job.request.clip):
            video = cached_video(
                job.request.clip, width=self.config.width,
                height=self.config.height, n_frames=self.config.n_frames,
            )
            encode_result, stream, program = record_trace(
                video, job.request.options()
            )
            base_report = simulate(stream, program, self._baseline)
        profiled = _ProfiledJob(
            stream=stream,
            program=program,
            counters=CounterSet.from_report(
                base_report,
                psnr_db=encode_result.psnr_db,
                bitrate_kbps=encode_result.bitrate_kbps,
            ),
            baseline_cycles=base_report.cycles,
            encode_seconds=encode_result.encode_seconds,
        )
        self._profiles[key] = profiled
        return profiled

    # -- observation ---------------------------------------------------
    def status(self, job_id: int) -> JobStatus:
        """The lifecycle snapshot of one job."""
        return self.queue.get(job_id).status()

    def statuses(self) -> list[JobStatus]:
        """Snapshots of every admitted job, in admission order."""
        return [j.status() for j in self.queue.jobs()]

    def report(self) -> ServiceReport:
        """Summarize the run and publish the summary gauges."""
        return summarize(
            self.queue, self.fleet, policy=self.policy.name,
            objective=self.config.objective,
            worker_crashes=self.worker_crashes,
        )

    # -- checkpointing -------------------------------------------------
    def _write_checkpoint(self) -> None:
        path = self.config.checkpoint_path
        if path is None:
            return
        doc = self.queue.snapshot()
        doc["next_id"] = self._next_id
        doc["next_seq"] = self._next_seq
        atomic_write_text(path, json.dumps(doc))
        obs.inc("service.checkpoint_writes")

    def _restore_checkpoint(self) -> None:
        path = self.config.checkpoint_path
        if path is None or not Path(path).exists():
            return
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        restored = self.queue.restore(doc)
        self._next_id = int(doc.get("next_id", restored + 1))
        self._next_seq = int(doc.get("next_seq", restored))
        obs.inc("service.checkpoint_restores")


def run_service(
    requests: list[TranscodeRequest],
    config: ServiceConfig | None = None,
    *,
    control: bool = True,
    resume: bool = False,
) -> ServiceReport:
    """Run one synchronous service pass over ``requests``.

    Submits everything, drains the queue, and — when ``control`` is true
    and the primary policy is not already ``random`` — re-runs the same
    submissions under the random-placement control (sharing the profile
    cache, so the control pays no extra encodes) and attaches its report,
    making the paper's smart-vs-random serving margin directly readable
    from the returned :class:`ServiceReport`.
    """
    cfg = config or ServiceConfig()
    shared_profiles: dict[tuple, _ProfiledJob] = {}
    service = TranscodeService(
        cfg, resume=resume, profile_cache=shared_profiles
    )
    service.submit_many(requests)
    report = service.run_until_idle()
    if control and cfg.policy != "random":
        control_cfg = replace(cfg, policy="random", checkpoint_path=None)
        control_service = TranscodeService(
            control_cfg, profile_cache=shared_profiles
        )
        control_service.submit_many(requests)
        report.control = control_service.run_until_idle()
        margin = report.margin_vs_control_pp
        if margin is not None:
            obs.set_gauge("service.margin_vs_control_pp", margin)
    return report
