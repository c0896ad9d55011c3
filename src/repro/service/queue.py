"""The job ledger: bounded admission, dispatch order, and the books.

:class:`BoundedJobQueue` owns every job's lifecycle. It is the only code
that changes ``Job.state`` — ``put`` (admit), ``start``, ``requeue`` and
``finish`` each call the matching ``Job.mark_*`` — and it keeps the books
as it goes: the dispatchable set is a heap keyed ``(-priority, job_id)``,
``queued`` / ``running`` are two integers, and the terminal transition
enters the job in a :class:`Tally`. ``depth``, ``pending``, ``pop_ready``
and the reports read those books, so no call costs more for the jobs
that finished before it.

Submissions beyond ``capacity`` raise :class:`QueueFullError`
(backpressure, like a 429 from a serving stack). Dispatch order is
priority-major (higher first), FIFO within a priority class (a job's id
is its arrival order); a requeued job re-enters under its original key
so a retry cannot jump ahead of its peers.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.api.types import JOB_DONE, JOB_QUEUED, JOB_RUNNING, TranscodeResult
from repro.obs import session as obs
from repro.service.clock import Clock, WallClock
from repro.service.jobs import Job

__all__ = ["BoundedJobQueue", "QueueFullError", "Tally"]


class QueueFullError(RuntimeError):
    """Raised by :meth:`BoundedJobQueue.put` when the queue is at
    capacity — the service's backpressure signal."""


@dataclass
class Tally:
    """What the terminal transitions have added up so far."""

    completed: int = 0
    failed: int = 0
    #: One sample per terminal job that carries the timing.
    e2e_s: list[float] = field(default_factory=list)
    queue_wait_s: list[float] = field(default_factory=list)
    #: First admission on the queue clock (where a run's makespan starts).
    first_submitted_ns: int | None = None

    def add(self, job: Job) -> None:
        """Enter one terminal job."""
        if job.state == JOB_DONE:
            self.completed += 1
        else:
            self.failed += 1
        for key, samples in (("e2e_s", self.e2e_s),
                             ("queue_wait_s", self.queue_wait_s)):
            if key in job.timings:
                samples.append(job.timings[key])


class BoundedJobQueue:
    """Priority-then-FIFO job ledger with a hard capacity bound.

    Tracks *every* job ever admitted (the service needs terminal jobs
    for status queries and the run report); only queued and running jobs
    count against ``capacity``, and a terminal job is never visited
    again except by :meth:`get` and :meth:`jobs`.
    """

    def __init__(self, capacity: int = 64, *,
                 clock: Clock | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.clock = clock if clock is not None else WallClock()
        self._jobs: dict[int, Job] = {}   # insertion-ordered job registry
        self._ready: list[tuple[int, int, Job]] = []   # the heap
        self._queued = 0
        self._running = 0
        self.tally = Tally()

    def _push(self, job: Job) -> None:
        heapq.heappush(
            self._ready, (-job.request.priority, job.job_id, job)
        )

    def _leave(self, job: Job) -> None:
        """Take ``job`` out of the count of its (non-terminal) state."""
        if self._jobs.get(job.job_id) is not job:
            raise ValueError(f"job {job.job_id} was never admitted")
        if job.state == JOB_QUEUED:
            self._queued -= 1
        elif job.state == JOB_RUNNING:
            self._running -= 1
        else:
            raise ValueError(f"job {job.job_id} is already {job.state}")

    # -- admission ------------------------------------------------------
    @property
    def full(self) -> bool:
        """Whether the next :meth:`put` would be rejected."""
        return self.depth() >= self.capacity

    def put(self, job: Job) -> None:
        """Admit ``job``; raises :class:`QueueFullError` at capacity."""
        if job.job_id in self._jobs:
            raise ValueError(f"job {job.job_id} already admitted")
        if self.full:
            obs.inc("service.queue_rejections")
            raise QueueFullError(
                f"queue at capacity ({self.capacity}); shed load or retry"
            )
        self._jobs[job.job_id] = job
        now = self.clock.now_ns()
        job.submitted_ns = now   # e2e clock starts at first admission
        job.enqueued_ns = now    # queue-wait clock, restamped on requeue
        if self.tally.first_submitted_ns is None:
            self.tally.first_submitted_ns = now
        self._queued += 1
        self._push(job)
        self._observe_depth()

    # -- dispatch -------------------------------------------------------
    def pop_ready(self, n: int) -> list[Job]:
        """Take up to ``n`` dispatchable jobs off the heap in
        priority-major, then arrival, order. They stay ``queued``: the
        caller owes each one a :meth:`start`, a :meth:`finish` or a
        :meth:`put_back` before it reads :meth:`pending` again."""
        ready = [
            heapq.heappop(self._ready)[-1]
            for _ in range(min(max(n, 0), len(self._ready)))
        ]
        self._observe_depth()
        return ready

    def put_back(self, jobs: list[Job]) -> None:
        """Return taken-but-unplaced jobs under their original keys."""
        for job in jobs:
            self._push(job)

    def start(self, job: Job, worker: str) -> None:
        """``queued`` → ``running``: a placement attempt on ``worker``."""
        self._leave(job)
        job.mark_running(worker)
        self._running += 1

    def requeue(self, job: Job, error: str, *,
                now_ns: int | None = None) -> None:
        """``running`` → ``queued`` after a worker failure. Never
        rejects: the job already holds an admission slot. ``now_ns``
        pins the re-enqueue instant (the virtual completion time of the
        crashed attempt); default is the queue clock's current time."""
        self._leave(job)
        job.mark_requeued(error)
        job.enqueued_ns = now_ns if now_ns is not None else self.clock.now_ns()
        self._queued += 1
        self._push(job)
        obs.inc("service.requeues")
        self._observe_depth()

    def finish(self, job: Job, outcome: TranscodeResult | str) -> None:
        """The terminal transition: ``done`` with a result, ``failed``
        with an error string. Releases the admission slot and enters the
        job in :attr:`tally`. A ``queued`` job must have been taken with
        :meth:`pop_ready` first."""
        self._leave(job)
        if isinstance(outcome, str):
            job.mark_failed(outcome)
        else:
            job.mark_done(outcome)
        self.tally.add(job)

    # -- views ----------------------------------------------------------
    def depth(self) -> int:
        """Jobs holding admission slots (queued or running)."""
        return self._queued + self._running

    def pending(self) -> int:
        """Jobs waiting for dispatch."""
        return self._queued

    def get(self, job_id: int) -> Job:
        """The tracked job with ``job_id`` (KeyError if unknown)."""
        return self._jobs[job_id]

    def jobs(self) -> list[Job]:
        """Every tracked job, in admission order."""
        return list(self._jobs.values())

    def _observe_depth(self) -> None:
        obs.set_gauge("service.queue_depth", float(self.depth()))
