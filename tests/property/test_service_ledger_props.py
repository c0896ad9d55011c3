"""Property tests the service ledger stands on (seeded, virtual clock, no
wall-clock assertions):

- **Ledger == scan**: after any generated sequence of admit /
  take-and-start / put-back-unplaced / requeue / finish operations,
  ``depth()``, ``pending()``, the order of
  a full ``pop_ready`` and the tally equal what a scan of ``jobs()``
  computes. The scan is the pre-ledger ``BoundedJobQueue``, kept here as
  the oracle.
- **Conservation under seeded random fault plans**: offered = admitted +
  shed, admitted = done + failed once idle, ``fleet.cost_usd()`` = the
  sum of per-job charges, every terminal job has ``e2e_s`` — over random
  fleets, objectives, capacities and crash / retry plans, with
  ``ResourceWarning`` as an error.
- **History independence**: with 500 terminal jobs retained, one
  ``submit`` + ``pump`` of one job reads ``.state`` of a constant number
  of jobs (every pre-ledger queue call read all of them).
"""

from __future__ import annotations

import gc
import random

import pytest

from repro.api.types import (
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    TranscodeRequest,
    TranscodeResult,
)
from repro.loadgen import driver
from repro.loadgen.driver import LoadtestSpec, run_loadtest
from repro.resilience.faults import install_plan
from repro.resilience.retry import RetryPolicy, install_policy
from repro.service import service as service_module
from repro.service.clock import VirtualClock
from repro.service.jobs import Job
from repro.service.queue import BoundedJobQueue, QueueFullError
from repro.service.service import ServiceConfig, TranscodeService
from repro.service.workers import parse_fleet_spec

TINY = dict(width=48, height=32, n_frames=3)


# -- (a) ledger == scan --------------------------------------------------

def scan(jobs: list[Job]) -> dict:
    """What the pre-ledger queue (and its callers) computed by walking
    every job ever admitted."""
    terminal = [j for j in jobs if j.state in (JOB_DONE, JOB_FAILED)]
    return {
        "depth": sum(1 for j in jobs if j.state in (JOB_QUEUED, JOB_RUNNING)),
        "pending": sum(1 for j in jobs if j.state == JOB_QUEUED),
        "order": [
            j.job_id for j in sorted(
                (j for j in jobs if j.state == JOB_QUEUED),
                key=lambda j: (-j.request.priority, j.job_id),
            )
        ],
        "completed": sum(1 for j in jobs if j.state == JOB_DONE),
        "failed": sum(1 for j in jobs if j.state == JOB_FAILED),
        "e2e_s": sorted(j.timings["e2e_s"] for j in terminal
                        if "e2e_s" in j.timings),
        "queue_wait_s": sorted(j.timings["queue_wait_s"] for j in terminal
                               if "queue_wait_s" in j.timings),
    }


def books(q: BoundedJobQueue) -> dict:
    """The same quantities read off the ledger. The full pop is put
    straight back, so reading the order leaves the queue as it was."""
    order = q.pop_ready(q.pending())
    q.put_back(order)
    return {
        "depth": q.depth(),
        "pending": q.pending(),
        "order": [j.job_id for j in order],
        "completed": q.tally.completed,
        "failed": q.tally.failed,
        "e2e_s": sorted(q.tally.e2e_s),
        "queue_wait_s": sorted(q.tally.queue_wait_s),
    }


def _result(cycles: float) -> TranscodeResult:
    return TranscodeResult(
        clip="cricket", preset="medium", crf=23, refs=3, psnr_db=40.0,
        bitrate_kbps=100.0, encode_seconds=0.0, cycles=cycles,
        config="fe_op", baseline_cycles=2.0 * cycles,
    )


@pytest.mark.parametrize("seed", range(25))
def test_ledger_equals_scan(seed):
    rng = random.Random(seed)
    clock = VirtualClock()
    q = BoundedJobQueue(rng.randint(1, 12), clock=clock)
    next_id = 1

    def running():
        return [j for j in q.jobs() if j.state == JOB_RUNNING]

    def finish(job):
        if rng.random() < 0.8:
            job.timings["e2e_s"] = rng.random()
        if rng.random() < 0.7:
            job.timings["queue_wait_s"] = rng.random()
        q.finish(job, _result(rng.uniform(1, 9)) if rng.random() < 0.6
                 and job.state == JOB_RUNNING else "boom")

    for _ in range(200):
        clock.advance_to_ns(clock.now_ns() + rng.randint(0, 1000))
        op = rng.choice(("admit", "admit", "take", "take", "requeue",
                         "finish", "finish", "fail-unplaced"))
        if op == "admit":
            job = Job(job_id=next_id, request=TranscodeRequest(
                clip="cricket", priority=rng.randint(0, 3)))
            was_full = scan(q.jobs())["depth"] >= q.capacity
            try:
                q.put(job)
            except QueueFullError:
                assert was_full
            else:
                assert not was_full
                next_id += 1
        elif op in ("take", "fail-unplaced"):
            # A batch off the heap; a random subset is placed (or shed),
            # the rest goes back — as pump / _fail_pending do.
            batch = q.pop_ready(rng.randint(0, 5))
            chosen = [j for j in batch if rng.random() < 0.6]
            q.put_back([j for j in batch if j not in chosen])
            for job in chosen:
                if op == "take":
                    q.start(job, f"w{rng.randint(0, 3)}")
                else:
                    finish(job)
        elif op == "requeue" and running():
            q.requeue(rng.choice(running()), "crash")
        elif op == "finish" and running():
            finish(rng.choice(running()))
        assert books(q) == scan(q.jobs()), (seed, op)


# -- (b) conservation under seeded random fault plans --------------------

FLEETS = (
    "fe_op,be_op1,be_op2,bs_op",
    "fe_op:2",
    "bs_op",
    "c6g.xlarge,a1.xlarge",
    "fe_op:1:$0.01,be_op1:1:$1.0",
)


@pytest.mark.filterwarnings("error::ResourceWarning")
@pytest.mark.parametrize("seed", range(16))
def test_conservation_under_random_fault_plans(seed, monkeypatch):
    rng = random.Random(1000 + seed)
    created: list[TranscodeService] = []

    class Spy(TranscodeService):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    monkeypatch.setattr(driver, "TranscodeService", Spy)
    objective = rng.choice(("throughput", "min-cost", "min-latency"))
    config = ServiceConfig(
        fleet=parse_fleet_spec(rng.choice(FLEETS)),
        objective=objective,
        deadline_s=rng.choice((None, 0.05, 0.5)) if objective == "min-cost" else None,
        budget_usd=rng.choice((None, 0.05)) if objective == "min-latency" else None,
        queue_capacity=rng.randint(2, 8),
        max_attempts=rng.randint(1, 3),
        **TINY,
    )
    clauses = [
        f"service.worker,rate={rng.choice((0.05, 0.2, 0.5))},seed={seed},"
        f"max={rng.randint(1, 9)},raise=RuntimeError",
        f"service.worker,rate={rng.choice((0.1, 0.3))},seed={seed + 99},"
        "raise=InjectedFault",
    ]
    plan = ";".join(c for c in clauses if rng.random() < 0.75)
    install_policy(RetryPolicy(base_delay=0.0, max_delay=0.0, jitter=0.0))
    install_plan(plan or None)
    spec = LoadtestSpec(
        arrivals=rng.choice(("poisson", "fixed", "mmpp")),
        rates=(rng.choice((5.0, 20.0, 60.0)),),
        duration_s=1.5, seed=seed, open_loop=rng.random() < 0.7,
    )
    (leg,) = run_loadtest(spec, config).legs
    (service,) = created
    statuses = service.statuses()

    assert leg.offered == leg.admitted + leg.shed
    assert leg.admitted == leg.completed + leg.failed == len(statuses)
    assert all(s.state in (JOB_DONE, JOB_FAILED) for s in statuses)
    assert leg.completed == sum(s.state == JOB_DONE for s in statuses)
    assert all("e2e_s" in s.timings for s in statuses)
    assert service.fleet.cost_usd() == pytest.approx(
        sum(s.cost_usd for s in statuses), rel=1e-9, abs=1e-15
    )
    assert (service.queue.depth(), service.queue.pending()) == (0, 0)
    assert books(service.queue) == scan(service.queue.jobs())
    del service, created
    gc.collect()    # surface any unclosed resource inside the filter


# -- (c) history independence --------------------------------------------

class CountingJob(Job):
    """A job that records whose ``.state`` gets read."""

    readers: set[int] = set()

    @property
    def state(self) -> str:
        CountingJob.readers.add(self.job_id)
        return self.__dict__["_state"]

    @state.setter
    def state(self, value: str) -> None:
        self.__dict__["_state"] = value


def test_one_job_costs_the_same_after_500(monkeypatch):
    monkeypatch.setattr(service_module, "Job", CountingJob)
    service = TranscodeService(ServiceConfig(**TINY), clock=VirtualClock())
    request = TranscodeRequest(clip="cricket")
    # 500 terminal jobs, retained through the ledger's own transitions
    # (admit, take, finish) with no encode: the law is about the books.
    queue = service.queue
    for i in range(1, 501):
        queue.put(CountingJob(job_id=i, request=request,
                              timings={"e2e_s": 1.0}))
        (job,) = queue.pop_ready(1)
        queue.finish(job, _result(1.0) if i % 7 else "boom")
    service._next_id = 501
    assert (queue.tally.completed, queue.tally.failed) == (429, 71)

    CountingJob.readers = set()
    status = service.submit(request)
    assert service.pump() == 1
    assert service.status(status.job_id).state == JOB_DONE
    assert CountingJob.readers == {status.job_id}
    assert (service.queue.depth(), service.queue.pending()) == (0, 0)
