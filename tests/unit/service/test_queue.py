"""Unit tests for the bounded admission queue (backpressure, dispatch
order, and the lifecycle transitions)."""

import pytest

from repro.api.types import JOB_QUEUED, TranscodeRequest, TranscodeResult
from repro.service.jobs import Job
from repro.service.queue import BoundedJobQueue, QueueFullError


def make_job(job_id: int, *, priority: int = 0) -> Job:
    return Job(
        job_id=job_id,
        request=TranscodeRequest(clip="cricket", priority=priority),
    )


def take(q: BoundedJobQueue, job: Job, worker: str = "w0") -> None:
    """Drive ``job`` to ``running`` the way the service does: off the
    heap with its batch, the rest of the batch put back."""
    batch = q.pop_ready(q.pending())
    assert job in batch
    q.put_back([j for j in batch if j is not job])
    q.start(job, worker)


RESULT = TranscodeResult(
    clip="cricket", preset="medium", crf=23, refs=3, psnr_db=40.0,
    bitrate_kbps=100.0, encode_seconds=0.0, cycles=1.0, config="fe_op",
)


class TestAdmission:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            BoundedJobQueue(0)

    def test_backpressure_at_capacity(self):
        q = BoundedJobQueue(2)
        q.put(make_job(1))
        q.put(make_job(2))
        with pytest.raises(QueueFullError, match="capacity"):
            q.put(make_job(3))

    def test_duplicate_job_id_rejected(self):
        q = BoundedJobQueue(4)
        q.put(make_job(1))
        with pytest.raises(ValueError, match="already admitted"):
            q.put(make_job(1))

    def test_terminal_jobs_release_their_slots(self):
        q = BoundedJobQueue(1)
        job = make_job(1)
        q.put(job)
        take(q, job)
        with pytest.raises(QueueFullError):
            q.put(make_job(2))   # running jobs still hold a slot
        q.finish(job, "boom")
        q.put(make_job(2))       # terminal job freed the slot
        assert q.depth() == 1
        assert (q.tally.completed, q.tally.failed) == (0, 1)

    def test_requeue_requires_prior_admission(self):
        q = BoundedJobQueue(2)
        with pytest.raises(ValueError, match="never admitted"):
            q.requeue(make_job(9), "crash")


class TestDispatchOrder:
    def test_priority_major_then_fifo(self):
        q = BoundedJobQueue(8)
        q.put(make_job(1, priority=0))
        q.put(make_job(2, priority=5))
        q.put(make_job(3, priority=5))
        q.put(make_job(4, priority=1))
        ready = q.pop_ready(4)
        assert [j.job_id for j in ready] == [2, 3, 4, 1]

    def test_pop_ready_respects_n(self):
        q = BoundedJobQueue(8)
        for i in range(1, 5):
            q.put(make_job(i))
        assert [j.job_id for j in q.pop_ready(2)] == [1, 2]
        assert q.pop_ready(0) == []

    def test_requeued_job_keeps_its_arrival_order(self):
        q = BoundedJobQueue(8)
        first, second = make_job(1), make_job(2)
        q.put(first)
        q.put(second)
        take(q, first)
        q.requeue(first, "crash")
        assert first.state == JOB_QUEUED and first.error == "crash"
        assert [j.job_id for j in q.pop_ready(2)] == [1, 2]


    def test_unplaced_batch_members_go_back_under_their_keys(self):
        # policy.place routinely returns fewer pairs than jobs under
        # min-cost / min-latency: the rest of a taken batch must be
        # dispatchable again, in its original order, ahead of later
        # arrivals of the same priority.
        q = BoundedJobQueue(8)
        for i, priority in ((1, 0), (2, 5), (3, 0), (4, 5)):
            q.put(make_job(i, priority=priority))
        batch = q.pop_ready(3)
        assert [j.job_id for j in batch] == [2, 4, 1]
        assert q.pending() == 4          # taken jobs are still queued
        q.start(batch[1], "w0")          # only job 4 was placed
        q.put_back([batch[0], batch[2]])
        q.put(make_job(5, priority=5))
        assert (q.pending(), q.depth()) == (4, 5)
        assert [j.job_id for j in q.pop_ready(9)] == [2, 5, 1, 3]

    def test_illegal_transitions_are_rejected(self):
        q = BoundedJobQueue(4)
        job = make_job(1)
        with pytest.raises(ValueError, match="never admitted"):
            q.start(job, "w0")
        q.put(job)
        take(q, job)
        q.finish(job, RESULT)
        with pytest.raises(ValueError, match="already done"):
            q.finish(job, "again")
        assert (q.tally.completed, q.tally.failed, q.depth()) == (1, 0, 0)
