"""Unit tests for the long-lived transcoding job service.

Runs the real encode→trace→simulate path on tiny proxy clips (48x32, a
few frames), so these tests cover the full queue → profile → placement →
fleet data flow, including crash isolation and checkpoint/resume.
"""

import pytest

from repro.api.types import TranscodeRequest
from repro.resilience.faults import install_plan
from repro.service.queue import QueueFullError
from repro.service.service import (
    ServiceConfig,
    TranscodeService,
    run_service,
    table3_requests,
)
from repro.service.workers import DEFAULT_FLEET, parse_fleet_spec

TINY = dict(width=48, height=32, n_frames=3)


class TestConfig:
    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="placement policy"):
            ServiceConfig(policy="oracle")

    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError, match="max_attempts"):
            ServiceConfig(max_attempts=0)

    def test_fleet_spec_parsing(self):
        entries = parse_fleet_spec("fe_op,be_op1:2")
        assert [(e.name, e.count, e.rate_per_hour) for e in entries] == [
            ("fe_op", 1, None), ("be_op1", 2, None),
        ]
        with pytest.raises(ValueError, match="unknown"):
            parse_fleet_spec("warp_drive")
        with pytest.raises(ValueError, match="empty"):
            parse_fleet_spec(" , ")

    def test_fleet_spec_drives_worker_expansion(self):
        service = TranscodeService(ServiceConfig(
            fleet=parse_fleet_spec("fe_op:2,be_op1"), **TINY
        ))
        assert [w.config_name for w in service.fleet.workers] == [
            "fe_op", "fe_op", "be_op1",
        ]

    def test_table3_requests_cycle_the_mix(self):
        reqs = table3_requests(6)
        assert len(reqs) == 6
        assert reqs[0].content_key() == reqs[4].content_key()
        with pytest.raises(ValueError):
            table3_requests(0)


class TestLifecycle:
    def test_submit_and_drain(self):
        service = TranscodeService(ServiceConfig(**TINY))
        statuses = service.submit_many(table3_requests(4))
        assert all(s.state == "queued" for s in statuses)

        report = service.run_until_idle()
        assert report.completed == 4
        assert report.failed == 0
        assert report.policy == "smart"
        assert report.mean_latency_cycles > 0
        for status in service.statuses():
            assert status.state == "done"
            assert status.result.cycles is not None
            assert status.result.config in DEFAULT_FLEET
        assert set(report.placements) == {1, 2, 3, 4}

    def test_backpressure_surfaces_to_submitter(self):
        service = TranscodeService(ServiceConfig(queue_capacity=1, **TINY))
        service.submit(TranscodeRequest(clip="cricket"))
        with pytest.raises(QueueFullError):
            service.submit(TranscodeRequest(clip="holi"))

    def test_identical_requests_profile_once(self):
        service = TranscodeService(ServiceConfig(**TINY))
        service.submit_many(table3_requests(8))  # 4 unique, each twice
        report = service.run_until_idle()
        assert report.completed == 8
        assert len(service._profiles) == 4

    def test_status_lookup(self):
        service = TranscodeService(ServiceConfig(**TINY))
        job = service.submit(TranscodeRequest(clip="cricket"))
        assert service.status(job.job_id).state == "queued"
        with pytest.raises(KeyError):
            service.status(99)


class TestCrashIsolation:
    def test_crashed_worker_is_isolated_and_job_replaced(self):
        install_plan("service.worker,at=1,raise=RuntimeError")
        service = TranscodeService(ServiceConfig(**TINY))
        service.submit(TranscodeRequest(clip="cricket"))
        report = service.run_until_idle()
        assert report.completed == 1
        assert report.worker_crashes == 1
        assert len(service.fleet.available()) == len(DEFAULT_FLEET) - 1
        status = service.statuses()[0]
        assert status.state == "done"
        assert status.attempts == 2  # first placement crashed

    def test_attempt_budget_exhaustion_fails_the_job(self):
        install_plan("service.worker,at=1|2,raise=RuntimeError")
        service = TranscodeService(ServiceConfig(max_attempts=2, **TINY))
        service.submit(TranscodeRequest(clip="cricket"))
        report = service.run_until_idle()
        assert report.completed == 0
        assert report.failed == 1
        assert report.worker_crashes == 2
        status = service.statuses()[0]
        assert status.state == "failed"
        assert "isolated" in status.error

    def test_whole_fleet_isolated_fails_pending_jobs(self):
        install_plan("service.worker,raise=RuntimeError")
        service = TranscodeService(
            ServiceConfig(fleet=("fe_op",), max_attempts=5, **TINY)
        )
        service.submit(TranscodeRequest(clip="cricket"))
        service.submit(TranscodeRequest(clip="holi"))
        report = service.run_until_idle()
        assert report.completed == 0
        assert report.failed == 2
        assert service.fleet.available() == []

    def test_retryable_faults_retry_in_place(self):
        # InjectedFault is retryable: the worker survives, no isolation.
        install_plan("service.worker,at=1,raise=InjectedFault")
        service = TranscodeService(ServiceConfig(**TINY))
        service.submit(TranscodeRequest(clip="cricket"))
        report = service.run_until_idle()
        assert report.completed == 1
        assert report.worker_crashes == 0
        assert len(service.fleet.available()) == len(DEFAULT_FLEET)


class TestTerminalAccounting:
    """Regression: every way a job can end goes through the one terminal
    transition, so a job that fails *without a placement* still gets its
    ``e2e_s`` stamp, its stage sample and its deadline accounting (at
    the parent a ``deadline_miss_rate`` SLO read 0 / 0 on a run where
    every deadline was missed)."""

    def _run(self, config, requests, plan=None):
        from repro.obs.session import telemetry_session
        from repro.service.clock import VirtualClock

        if plan:
            install_plan(plan)
        with telemetry_session() as tel:
            service = TranscodeService(config, clock=VirtualClock())
            service.submit_many(requests)
            report = service.run_until_idle()
            state = tel.metrics.export_state()
        return service, report, state

    @staticmethod
    def _e2e_samples(state):
        return sum(
            hist["count"] for key, hist in state["histograms"].items()
            if key.startswith("service.stage_latency_s")
            and 'stage="e2e"' in key
        )

    def test_shed_jobs_get_terminal_accounting(self):
        requests = [
            TranscodeRequest(clip=r.clip, preset=r.preset, crf=r.crf,
                             refs=r.refs, deadline_ms=0.001)
            for r in table3_requests(4)
        ]
        service, report, state = self._run(
            ServiceConfig(objective="min-cost", **TINY), requests
        )
        assert report.failed == 4
        counters = state["counters"]
        assert counters["service.jobs_failed"] == 4
        assert counters["service.jobs_shed_infeasible"] == 4
        assert counters["service.jobs_with_deadline"] == 4
        assert counters["service.deadline_misses"] == 4
        for status in service.statuses():
            assert status.state == "failed"
            assert "no feasible worker" in status.error
            assert "e2e_s" in status.timings
        assert self._e2e_samples(state) == 4

    def test_jobs_left_with_no_worker_get_terminal_accounting(self):
        requests = [
            TranscodeRequest(clip=clip, deadline_ms=60_000.0)
            for clip in ("cricket", "holi", "desktop")
        ]
        service, report, state = self._run(
            ServiceConfig(fleet=("fe_op",), max_attempts=5, **TINY),
            requests, plan="service.worker,raise=RuntimeError",
        )
        assert report.failed == 3 and report.worker_crashes == 1
        errors = [s.error for s in service.statuses()]
        assert "isolated" in errors[0]
        assert errors[1:] == ["no workers available (all isolated)"] * 2
        assert all("e2e_s" in s.timings for s in service.statuses())
        counters = state["counters"]
        assert counters["service.jobs_with_deadline"] == 3
        assert counters["service.deadline_misses"] == 3
        assert self._e2e_samples(state) == 3

    def test_jobs_the_policy_never_places_get_terminal_accounting(self):
        from repro.service.clock import VirtualClock

        service = TranscodeService(ServiceConfig(**TINY), clock=VirtualClock())
        service.policy.place = lambda jobs, workers, counters: {}
        service.submit(TranscodeRequest(clip="cricket", priority=1))
        service.submit(TranscodeRequest(clip="holi", priority=5))
        report = service.run_until_idle()
        assert report.failed == 2 and service.queue.pending() == 0
        for status in service.statuses():
            assert status.error == "placement policy returned no placement"
            assert status.timings == {"e2e_s": 0.0}


class TestVirtualClockTimings:
    """Regression: queue wait is stamped at *placement*, not round
    start. The old round-based loop folded earlier batch members'
    encode time into later members' queue wait; under continuous
    admission ``queue_wait == placement_time - admission_time`` by
    construction, checked here on a deterministic 2-job / 1-worker
    scenario over the virtual clock."""

    def _drained(self):
        from repro.service.clock import VirtualClock

        service = TranscodeService(
            ServiceConfig(fleet=("fe_op",), **TINY),
            clock=VirtualClock(),
        )
        service.submit(TranscodeRequest(clip="cricket"))
        service.submit(TranscodeRequest(clip="cricket"))
        report = service.run_until_idle()
        assert report.completed == 2
        first, second = service.statuses()
        return first.timings, second.timings

    def test_queue_wait_is_placement_minus_admission(self):
        first, second = self._drained()
        # Job 1 is placed the instant the drain starts: zero wait.
        assert first["queue_wait_s"] == 0.0
        # Job 2 waits exactly as long as job 1 occupies the only
        # worker — its placement instant *is* job 1's completion.
        assert second["queue_wait_s"] == pytest.approx(
            first["encode_s"], abs=1e-12
        )
        # Identical requests charge identical virtual encode time, so
        # any extra wait would be the old round-barrier artifact.
        assert second["encode_s"] == first["encode_s"]

    def test_e2e_decomposes_into_stages(self):
        for timings in self._drained():
            assert timings["placement_s"] == 0.0  # virtual: no decision cost
            assert timings["e2e_s"] == pytest.approx(
                timings["queue_wait_s"] + timings["encode_s"], abs=1e-12
            )


class TestCheckpointResume:
    def test_resume_restores_pending_jobs(self, tmp_path):
        ckpt = tmp_path / "service.json"
        first = TranscodeService(
            ServiceConfig(checkpoint_path=ckpt, **TINY)
        )
        first.submit_many(table3_requests(3))
        assert ckpt.exists()

        revived = TranscodeService(
            ServiceConfig(checkpoint_path=ckpt, **TINY), resume=True
        )
        assert revived.queue.pending() == 3
        report = revived.run_until_idle()
        assert report.completed == 3

    def test_resume_skips_completed_jobs(self, tmp_path):
        ckpt = tmp_path / "service.json"
        cfg = ServiceConfig(checkpoint_path=ckpt, **TINY)
        first = TranscodeService(cfg)
        first.submit_many(table3_requests(2))
        first.run_until_idle()

        revived = TranscodeService(cfg, resume=True)
        assert revived.queue.pending() == 0
        report = revived.run_until_idle()
        assert report.completed == 2       # carried over, not re-run
        # New submissions continue the id sequence past restored jobs.
        status = revived.submit(TranscodeRequest(clip="cricket"))
        assert status.job_id == 3

    def test_resume_without_checkpoint_is_a_no_op(self, tmp_path):
        cfg = ServiceConfig(
            checkpoint_path=tmp_path / "missing.json", **TINY
        )
        service = TranscodeService(cfg, resume=True)
        assert service.queue.pending() == 0


class TestControlRun:
    def test_control_attached_and_margin_defined(self):
        report = run_service(
            table3_requests(4), ServiceConfig(**TINY), control=True
        )
        assert report.control is not None
        assert report.control.policy == "random"
        assert report.control.completed == 4
        assert report.margin_vs_control_pp == pytest.approx(
            report.mean_speedup_pct - report.control.mean_speedup_pct
        )

    def test_random_primary_skips_control(self):
        report = run_service(
            table3_requests(2),
            ServiceConfig(policy="random", **TINY),
            control=True,
        )
        assert report.control is None

    def test_payload_round_trips_to_json(self):
        import json

        report = run_service(
            table3_requests(2), ServiceConfig(**TINY), control=True
        )
        doc = json.loads(json.dumps(report.to_payload()))
        assert doc["completed"] == 2
        assert doc["control"]["policy"] == "random"
        assert len(doc["jobs"]) == 2

    def test_render_mentions_margin(self):
        report = run_service(
            table3_requests(2), ServiceConfig(**TINY), control=True
        )
        text = report.render()
        assert "policy=smart" in text
        assert "paper: +3.72" in text
