"""Unit tests for the bounded admission queue (backpressure, dispatch
order, and checkpoint snapshot/restore)."""

import pytest

from repro.api.types import (
    JOB_DONE,
    JOB_QUEUED,
    TranscodeRequest,
    TranscodeResult,
)
from repro.service.jobs import Job
from repro.service.queue import (
    QUEUE_SNAPSHOT_VERSION,
    BoundedJobQueue,
    QueueFullError,
)


def make_job(job_id: int, *, priority: int = 0, seq: int | None = None) -> Job:
    return Job(
        job_id=job_id,
        request=TranscodeRequest(clip="cricket", priority=priority),
        seq=job_id if seq is None else seq,
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


class TestSnapshotRestore:
    def test_round_trip_preserves_every_job(self):
        q = BoundedJobQueue(8)
        done = make_job(1)
        queued = make_job(2, priority=3)
        q.put(done)
        q.put(queued)
        take(q, done)
        q.finish(done, RESULT)

        restored = BoundedJobQueue(8)
        assert restored.restore(q.snapshot()) == 2
        assert restored.get(1).state == JOB_DONE
        assert restored.get(2).state == JOB_QUEUED
        assert restored.get(2).request.priority == 3

    def test_running_jobs_requeue_on_restore(self):
        q = BoundedJobQueue(4)
        job = make_job(1)
        q.put(job)
        take(q, job)

        restored = BoundedJobQueue(4)
        restored.restore(q.snapshot())
        revived = restored.get(1)
        assert revived.state == JOB_QUEUED
        assert revived.worker is None
        assert "restart" in (revived.error or "")

    def test_restore_rebuilds_heap_counters_and_tally(self):
        # A version-1 checkpoint as the pre-ledger service wrote it (the
        # format is unchanged): one running job, three queued across two
        # priorities, one done and one failed.
        def payload(job_id, state, priority=0, **extra):
            return {
                "job_id": job_id, "seq": job_id - 1, "state": state,
                "request": TranscodeRequest(
                    clip="cricket", priority=priority).to_payload(),
                **extra,
            }

        snap = {
            "version": 1, "capacity": 8, "next_id": 7, "next_seq": 6,
            "jobs": [
                payload(1, "done", attempts=1, worker="w0:fe_op",
                        result=RESULT.to_payload(), latency_cycles=1.0,
                        timings={"queue_wait_s": 0.5, "e2e_s": 2.0}),
                payload(2, "running", attempts=1, worker="w1:be_op1"),
                payload(3, "queued"),
                payload(4, "queued", priority=9),
                payload(5, "failed", error="boom", timings={"e2e_s": 3.0}),
                payload(6, "queued", priority=9),
            ],
        }
        q = BoundedJobQueue(8)
        assert q.restore(snap) == 6
        assert (q.pending(), q.depth()) == (4, 4)
        tally = q.tally
        assert (tally.completed, tally.failed) == (1, 1)
        assert (tally.e2e_s, tally.queue_wait_s) == ([2.0, 3.0], [0.5])
        # Same pop order the scan-and-sort gave: priority-major, then
        # arrival; the job caught running re-enters under its own seq.
        assert [j.job_id for j in q.pop_ready(9)] == [4, 6, 2, 3]

    def test_unsupported_version_rejected(self):
        snap = BoundedJobQueue(4).snapshot()
        snap["version"] = QUEUE_SNAPSHOT_VERSION + 1
        with pytest.raises(ValueError, match="snapshot version"):
            BoundedJobQueue(4).restore(snap)
