"""Service job records: a request plus its lifecycle state.

A :class:`Job` is the service's mutable wrapper around one immutable
:class:`~repro.api.types.TranscodeRequest`: it tracks the lifecycle
state (``queued`` → ``running`` → ``done`` | ``failed``), the placement
attempts, which worker ran it, and the final
:class:`~repro.api.types.TranscodeResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.types import (
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    JobStatus,
    TranscodeRequest,
    TranscodeResult,
)

__all__ = ["Job"]


@dataclass
class Job:
    """One submitted request and everything that happened to it."""

    job_id: int                      # arrival order (FIFO within priority)
    request: TranscodeRequest
    state: str = JOB_QUEUED
    attempts: int = 0                # placement attempts (not retries)
    worker: str | None = None        # worker name once placed
    error: str | None = None
    latency_cycles: float | None = None
    result: TranscodeResult | None = field(default=None, repr=False)
    trace_id: str | None = None      # links the job to its span tree
    #: Per-stage wall-clock seconds, accumulated across requeues
    #: (queue_wait_s, placement_s, encode_s, retry_overhead_s, e2e_s).
    timings: dict[str, float] = field(default_factory=dict)
    #: Dollars billed for this job's worker occupancy, accumulated
    #: across placement attempts (crashed attempts still billed).
    cost_usd: float = 0.0
    #: Service-clock stamps (ns) the queue sets on admission
    #: (``enqueued_ns`` again on requeue).
    submitted_ns: int | None = field(default=None, repr=False, compare=False)
    enqueued_ns: int | None = field(default=None, repr=False, compare=False)

    def add_timing(self, stage: str, seconds: float) -> None:
        """Accumulate ``seconds`` of wall-clock time into ``stage``."""
        self.timings[stage] = self.timings.get(stage, 0.0) + float(seconds)

    # -- lifecycle transitions -----------------------------------------
    def mark_running(self, worker: str) -> None:
        """Record a placement attempt on ``worker``."""
        self.state = JOB_RUNNING
        self.worker = worker
        self.attempts += 1

    def mark_done(self, result: TranscodeResult) -> None:
        """Record successful completion."""
        self.state = JOB_DONE
        self.result = result
        self.latency_cycles = result.cycles
        self.error = None

    def mark_requeued(self, error: str) -> None:
        """Return the job to the queue after a worker failure."""
        self.state = JOB_QUEUED
        self.error = error
        self.worker = None

    def mark_failed(self, error: str) -> None:
        """Record terminal failure (placement attempts exhausted)."""
        self.state = JOB_FAILED
        self.error = error

    # -- views ---------------------------------------------------------
    def status(self) -> JobStatus:
        """A detached snapshot of this job for API consumers."""
        return JobStatus(
            job_id=self.job_id,
            state=self.state,
            clip=self.request.clip,
            preset=self.request.preset,
            crf=self.request.crf,
            refs=self.request.refs,
            priority=self.request.priority,
            attempts=self.attempts,
            worker=self.worker,
            error=self.error,
            result=self.result,
            trace_id=self.trace_id,
            timings=dict(self.timings),
            cost_usd=self.cost_usd,
        )
