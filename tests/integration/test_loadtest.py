"""Integration: the open-loop load generator under sustained traffic.

The ISSUE 7 acceptance scenarios, end to end on the virtual clock:

- **Overload** (diurnal burst past fleet capacity): the open-loop
  driver keeps offering at the scheduled instants, so the bounded queue
  sheds — ``loadtest.shed`` counters are nonzero, the queue-wait tail
  reaches the full-queue wait past the median, and the run breaches the
  example SLO spec (``repro slo check`` exits 2).
- **Below capacity** (gentle Poisson): nothing sheds and the same SLO
  spec passes — ``repro slo check`` exits 0 on the exported run.json.
- **Determinism**: the same ``(spec, config)`` reproduces the same
  schedules (equal SHA-256 digests) and identical per-leg counts.
- **Closed loop**: at the very same overload rate, closed-loop
  admission sheds nothing — the control demonstrating why closed-loop
  harnesses hide overload (coordinated omission).

Every run here simulates tens of virtual seconds in wall milliseconds.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.api import ServiceConfig, loadtest
from repro.cli import main
from repro.loadgen.driver import LoadtestReport, LoadtestSpec, run_loadtest
from repro.obs.export import load_run
from repro.obs.session import telemetry_session

#: Proxy sizing shared with the service integration tests.
QUICK = dict(width=48, height=32, n_frames=4)

SLO_SPEC = (Path(__file__).resolve().parents[2]
            / "examples" / "slo" / "loadtest.json")

#: One diurnal period whose peak bursts far past the 4-worker QUICK
#: fleet (~12-15 jobs/virtual-s) while the trough idles it: the bounded
#: queue fills at the peak (shedding) yet drains between bursts, so the
#: queue waits run from zero in the trough to the full-queue wait.
OVERLOAD_SPEC = LoadtestSpec(
    arrivals="diurnal",
    rates=(10.0,),
    duration_s=40.0,
    seed=11,
    arrival_extras={"amplitude": 0.95, "period_s": 40.0},
)
OVERLOAD_CONFIG = dict(queue_capacity=16, **QUICK)


class TestOverload:
    @pytest.fixture(scope="class")
    def run(self):
        with telemetry_session() as tel:
            report = run_loadtest(
                OVERLOAD_SPEC, ServiceConfig(**OVERLOAD_CONFIG)
            )
            metrics = tel.metrics.as_dict()
        return report, metrics

    def test_open_loop_sheds_under_overload(self, run):
        report, metrics = run
        (leg,) = report.legs
        assert leg.shed > 0
        assert metrics["loadtest.shed"] == leg.shed
        assert metrics["loadtest.offered"] == leg.offered

    def test_offered_splits_into_admitted_plus_shed(self, run):
        report, metrics = run
        (leg,) = run[0].legs
        assert leg.offered == leg.admitted + leg.shed
        assert leg.admitted == leg.completed + leg.failed
        assert metrics["loadtest.admitted"] == leg.admitted
        assert metrics["loadtest.completed"] == leg.completed

    def test_queue_wait_tail_spreads_past_median(self, run):
        """What the schedule promises. Shedding means arrivals met a full
        queue, and the fleet drains it slower than the peak offered rate
        (else nothing would shed), so a job admitted behind a full queue
        waits at least ``queue_capacity / peak rate``: that is the tail.
        The median lands on the fill / drain ramp below it, at a point
        the jobs' service times (the simulated trace) decide, so no ratio
        of the two is promised."""
        (leg,) = run[0].legs
        extras = OVERLOAD_SPEC.arrival_extras
        peak_rate = OVERLOAD_SPEC.rates[0] * (1.0 + extras["amplitude"])
        full_queue_wait_s = OVERLOAD_CONFIG["queue_capacity"] / peak_rate
        assert leg.shed > 0
        assert 0.0 < leg.queue_wait_p50_s < leg.queue_wait_p90_s < leg.queue_wait_p99_s
        assert leg.queue_wait_p99_s >= full_queue_wait_s

    def test_overload_breaches_slo(self, tmp_path, capsys):
        out = tmp_path / "tel"
        loadtest(
            OVERLOAD_SPEC,
            ServiceConfig(**OVERLOAD_CONFIG),
            telemetry_dir=out,
            slo_spec=SLO_SPEC,
        )
        art = load_run(out / "run.json")
        assert art["slo"]["ok"] is False
        assert "shed-rate" in art["slo"]["breached"]
        assert "queue-wait-p99" in art["slo"]["breached"]
        # The shed accounting travels in run.json's meta section ...
        leg = art["meta"]["loadtest"]["legs"][0]
        assert leg["shed"] > 0
        assert leg["offered"] == leg["admitted"] + leg["shed"]
        # ... and `repro slo check` gates on the breach with exit 2.
        code = main(["slo", "check", str(out / "run.json"),
                     "--spec", str(SLO_SPEC)])
        assert code == 2
        assert "BREACHED" in capsys.readouterr().out


class TestBelowCapacity:
    def test_cli_run_passes_slo_check(self, tmp_path, capsys):
        out = tmp_path / "tel"
        code = main([
            "loadtest", "--arrivals", "poisson", "--rate", "4",
            "--duration", "10", "--seed", "5", "--quick",
            "--telemetry", str(out), "--slo", str(SLO_SPEC),
        ])
        assert code == 0
        rendered = capsys.readouterr().out
        assert "loadtest — poisson arrivals" in rendered

        art = load_run(out / "run.json")
        assert art["experiment"] == "loadtest"
        assert art["slo"]["ok"] is True
        (leg,) = art["meta"]["loadtest"]["legs"]
        assert leg["shed"] == 0
        assert leg["completed"] == leg["offered"]

        code = main(["slo", "check", str(out / "run.json"),
                     "--spec", str(SLO_SPEC)])
        assert code == 0
        assert "all objectives met" in capsys.readouterr().out


class TestDeterminism:
    def test_same_spec_reproduces_schedules_and_counts(self):
        config = ServiceConfig(**OVERLOAD_CONFIG)
        first = run_loadtest(OVERLOAD_SPEC, config)
        second = run_loadtest(OVERLOAD_SPEC, config)
        assert first.to_payload() == second.to_payload()
        assert (first.legs[0].schedule_digest
                == second.legs[0].schedule_digest)

    def test_cli_runs_are_deterministic(self, tmp_path, capsys):
        payloads = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main([
                "loadtest", "--arrivals", "poisson", "--rate", "6",
                "--duration", "8", "--seed", "3", "--quick",
                "--telemetry", str(out),
            ]) == 0
            payloads.append(load_run(out / "run.json")["meta"]["loadtest"])
        capsys.readouterr()
        assert payloads[0] == payloads[1]


class TestReportPayload:
    """``repro report`` prints ``meta.loadtest`` as
    ``LoadtestReport.from_payload(section).render()``: one table per
    report, the one the command printed."""

    def test_from_payload_inverts_to_payload(self):
        spec = LoadtestSpec(rates=(4.0, 8.0), duration_s=3.0, seed=2)
        report = run_loadtest(spec, ServiceConfig(**QUICK))
        payload = report.to_payload()
        assert "achieved_rps" in payload["legs"][0]   # derived, not read
        assert LoadtestReport.from_payload(payload) == report
        assert LoadtestReport.from_payload(
            json.loads(json.dumps(payload))) == report

    def test_report_prints_the_commands_table(self, tmp_path, capsys):
        out = tmp_path / "tel"
        assert main(["loadtest", "--quick", "--rate", "4", "--duration",
                     "3", "--telemetry", str(out)]) == 0
        table = capsys.readouterr().out
        assert table.startswith("loadtest — poisson arrivals")
        assert main(["report", str(out / "run.json")]) == 0
        assert table in capsys.readouterr().out


class TestClosedLoop:
    def test_closed_loop_never_sheds_at_the_same_rate(self):
        spec = dataclasses.replace(OVERLOAD_SPEC, open_loop=False)
        report = run_loadtest(spec, ServiceConfig(**OVERLOAD_CONFIG))
        (leg,) = report.legs
        assert leg.shed == 0
        assert leg.admitted == leg.offered
        assert leg.completed == leg.offered


class TestOneAdvanceRule:
    """The driver's between-arrival drain and the service's own drain
    are one loop over ``TranscodeService.step``."""

    #: ``poisson 20 req/s x 5 s, seed 7, queue_capacity=8`` under the
    #: default ``throughput`` objective, as the pre-ledger driver
    #: (``_drain_until``) reported it. Under ``throughput`` a pump with
    #: a free worker always places, so the two loops never differed and
    #: these numbers move only with the jobs' service times: they were
    #: re-pinned once, when ``subpel_refine`` stopped dropping the
    #: ``me_sad`` ``improve`` stream (one more arrival met a full queue).
    THROUGHPUT_LEG = {
        "rate": 20.0,
        "arrivals": "poisson(rate=20/s, seed=7)",
        "schedule_digest": "0cc5a0e1702992c7ecc1c85d2a428c2337"
                           "f4b633acffcb62f8b12d6768350faf",
        "offered": 98,
        "admitted": 78,
        "shed": 20,
        "completed": 78,
        "failed": 0,
        "duration_s": 5.0,
        "makespan_s": 5.314542378,
        "achieved_rps": 14.676710514697866,
        "queue_wait_p50_s": 0.407236565,
        "queue_wait_p90_s": 0.545947707,
        "queue_wait_p99_s": 0.61544039994,
        "e2e_p50_s": 0.6628818865,
        "e2e_p90_s": 0.8782954597,
        "e2e_p99_s": 0.9150608069800001,
        "cost_usd": 0.0005144943045916667,
        "provisioned_usd": 0.0005019290023666667,
        "cost_per_completed_usd": 6.59608082809829e-06,
        "jobs_per_dollar": 155400.46427327153,
    }

    def test_throughput_leg_equals_the_pre_ledger_driver(self):
        spec = LoadtestSpec(arrivals="poisson", rates=(20.0,),
                            duration_s=5.0, seed=7)
        report = run_loadtest(spec, ServiceConfig(queue_capacity=8, **QUICK))
        payload = report.legs[0].to_payload()
        assert list(payload) == list(self.THROUGHPUT_LEG)
        for key, expected in self.THROUGHPUT_LEG.items():
            if isinstance(expected, float):
                assert payload[key] == pytest.approx(expected, rel=1e-12), key
            else:
                assert payload[key] == expected, key

    def test_waiting_job_is_placed_at_the_horizon_not_the_next_arrival(
            self, monkeypatch):
        # min-cost, one cheap and one expensive worker, arrivals every
        # 125 ms: job 1 takes the cheap worker until ~127 ms, job 2
        # arrives at 125 ms and *waits* for it rather than pay 100x. The
        # old drain gave up at the first pump that placed nothing and
        # postponed job 2 to the 250 ms arrival (queue_wait 125 ms); in
        # real time the dispatch happens when the cheap worker frees up.
        from repro.loadgen import driver
        from repro.service.service import TranscodeService
        from repro.service.workers import parse_fleet_spec

        created = []

        class Spy(TranscodeService):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        monkeypatch.setattr(driver, "TranscodeService", Spy)
        config = ServiceConfig(
            fleet=parse_fleet_spec("fe_op:1:$0.01,be_op1:1:$1.0"),
            objective="min-cost", width=48, height=32, n_frames=3,
        )
        spec = LoadtestSpec(arrivals="fixed", rates=(8.0,),
                            duration_s=3.5 / 8.0, mix="table3", seed=0)
        (leg,) = run_loadtest(spec, config).legs
        assert (leg.offered, leg.completed) == (3, 3)
        first, second, third = created[0].statuses()
        assert {first.worker, second.worker, third.worker} == {"w0:fe_op"}
        horizon_s = first.timings["encode_s"]          # job 1 ran from t=0
        assert 0.125 < horizon_s < 0.250               # frees up in between
        assert second.timings["queue_wait_s"] == pytest.approx(
            horizon_s - 0.125, abs=1e-9
        )
