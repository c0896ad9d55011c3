"""``fleet_replay``: service jobs on the wall clock, the operator's cost.

One long-lived ``TranscodeService`` on the default Table IV fleet; each timed
call is a wave: ``submit_many`` of the four Table III requests plus
``run_until_idle``. The four unique requests are profiled once in set-up, so
a timed job is admission -> 4x4 placement -> trace replay on
``fe_op / be_op1 / be_op2 / bs_op``. uarch does >99% of the work and the
codec none - the mirror of ``transcode_ladder`` - and the same traces replay
on four cache / predictor geometries, so a ``uarch/cache.py`` rewrite that
wins on ``baseline`` but loses elsewhere shows. It is also the only
wall-clock measurement of the service: load tests run on a virtual clock.
"""

from __future__ import annotations

import random
import statistics
import time

from perfbench.spans import SpanRecorder
from perfbench.workloads import load_clip, mean, replay_uarch, uarch_rows
from repro.experiments.runner import QUICK
from repro.service.service import ServiceConfig, TranscodeService, table3_requests
from repro.uarch.simulator import simulate

WAVE = 4
TRACE_WAVES = 8
CONFIGS = ("fe_op", "be_op1", "be_op2", "bs_op")


class Workload:
    name = "fleet_replay"

    def setup(self, seed: int, smoke: bool, tmp) -> None:
        self.trace_passes = 2 if smoke else TRACE_WAVES
        self.requests = table3_requests(WAVE)
        random.Random(seed).shuffle(self.requests)
        config = ServiceConfig(
            seed=seed, width=QUICK.width, height=QUICK.height, n_frames=QUICK.n_frames
        )
        self.profiles: dict = {}
        self.service = TranscodeService(config, profile_cache=self.profiles)
        self.ops = ["wave"]
        self.waves: list[list[int]] = []
        start = time.perf_counter()
        self.call("wave")  # wave 0, cold: traces and baseline-profiles the 4 requests
        self.cold_wave_s = time.perf_counter() - start
        self.traced_jobs: list[int] = []
        self.traced_addrs = 0
        self.traced_instructions = 0.0

    def begin_pass(self) -> None:
        pass

    def call(self, op: str) -> int:
        statuses = self.service.submit_many(self.requests)
        self.service.run_until_idle()
        self.waves.append([s.job_id for s in statuses])
        return len(statuses)

    def _profile(self, request):
        """The service's warm per-request state (trace + program) out of the
        cache dict this workload handed it."""
        for key, profiled in self.profiles.items():
            if key[:4] == request.content_key():
                return profiled
        raise KeyError(request)

    def check(self) -> tuple[int, list]:
        report = self.service.report()
        failed = report.failed + (report.jobs_total - report.completed - report.failed)
        # Sampled jobs (the last wave): the worker's answer is what a
        # stand-alone simulate gives on that worker's configuration.
        for request, job_id in zip(self.requests, self.waves[-1]):
            status = self.service.status(job_id)
            if status.result is None:
                continue  # already counted as failed above
            profiled = self._profile(request)
            worker = self.service.fleet.get(status.worker)
            alone = simulate(profiled.stream, profiled.program, worker.config)
            failed += 0 if alone.cycles == status.result.cycles else 1
        # The digest covers the first timed wave: placement and simulated cycles.
        items = [
            [r.to_payload(), [s.result.config, s.result.cycles] if s.result else None]
            for r, s in zip(self.requests, map(self.service.status, self.waves[1]))
        ]
        return failed, items

    def trace_op(self, rec: SpanRecorder, op_id: int, op: str) -> None:
        with rec.span("op", op_id=op_id):
            with rec.span("service.submit"):
                statuses = self.service.submit_many(self.requests)
            with rec.span("service.drain"):
                self.service.run_until_idle()
            # Off the op's path: the same (trace, worker config) pairs alone.
            for request, submitted in zip(self.requests, statuses):
                status = self.service.status(submitted.job_id)
                profiled = self._profile(request)
                worker = self.service.fleet.get(status.worker)
                with rec.span(f"uarch.simulate.{worker.config_name}", on_path=False):
                    simulate(profiled.stream, profiled.program, worker.config)
                self.traced_addrs += replay_uarch(
                    rec, profiled.stream, profiled.program, worker.config
                )
                self.traced_instructions += profiled.stream.total_instructions
            if not self.traced_jobs:
                for clip in sorted({r.clip for r in self.requests}):
                    with rec.span("video.load", on_path=False):
                        load_clip(clip, QUICK)
        self.traced_jobs.extend(s.job_id for s in statuses)

    def trace_rows(self, rec: SpanRecorder, ops: int, whole: list[float]) -> dict:
        statuses = [self.service.status(job_id) for job_id in self.traced_jobs]
        submit = rec.total("service.submit")
        drain = rec.total("service.drain")
        rows = uarch_rows(rec, ops, self.traced_addrs, self.traced_instructions)
        rows.update(
            {
                "video.load_s": mean(rec.seconds("video.load")),
                "service.submit_s": submit / ops,
                "service.drain_s": drain / ops,
                "service.overhead_s": (submit + drain) / ops - rows["uarch.simulate_s"],
                "service.placement_s": mean(
                    [s.timings.get("placement_s", 0.0) for s in statuses]
                ),
                "service.profile_s": (
                    self.cold_wave_s * self.setup_scale - statistics.median(whole)
                ),
                "service.jobs_completed": sum(s.state == "done" for s in statuses),
                "service.jobs_failed": sum(s.state == "failed" for s in statuses),
                "service.worker_crashes": self.service.report().worker_crashes,
                "uarch.sim_cycles": sum(s.result.cycles for s in statuses if s.result),
                "uarch.sim_instructions": self.traced_instructions,
            }
        )
        for config in CONFIGS:
            rows[f"service.placements.{config}"] = sum(
                bool(s.result) and s.result.config == config for s in statuses
            )
        return rows
