"""Integration: heterogeneous cost-aware fleets, end to end.

The golden regression for the fleet-compare subsystem, pinned at quick
proxy sizing on the Table III mix with seed 0 (everything below runs on
the virtual clock, so the numbers are bit-for-bit deterministic):

- **Throughput/$ ordering**: the all-Arm fleet wins jobs-per-provisioned-
  dollar by a wide margin over the all-x86 fleet — the qualitative result
  of "Where to Encode: x86 vs Arm EC2" reproduced in serving mode.
- **Smart strictly beats random**: on *every* example fleet, cost-aware
  smart placement completes the same workload at strictly lower cost per
  completed job than the seeded random control.
- **Both Pareto objectives**: min-latency under a $/hour budget only ever
  uses within-budget workers; min-cost under an impossible deadline sheds
  every job with an explicit constraint error instead of silently
  violating it.
- **Artifacts**: the comparison round-trips through run.json
  (``meta.fleet_compare``), `repro report` renders the cost table,
  `repro report --diff` diffs throughput/$, and the
  ``repro fleet-compare --quick`` CLI exits 0 with the table on stdout.
"""

from __future__ import annotations

import pytest

from repro.api import ServiceConfig, table3_requests
from repro.cli import main
from repro.service.clock import VirtualClock
from repro.obs.export import diff_runs, load_run, render_run
from repro.service.fleetcompare import EXAMPLE_FLEETS, run_fleet_compare
from repro.service.service import TranscodeService
from repro.service.workers import parse_fleet_spec

#: Proxy sizing shared with the service/loadtest integration tests.
QUICK = dict(width=48, height=32, n_frames=4)

#: The example-matrix entries by name (x86 / arm / mixed / table4).
FLEETS = {f.name: f for f in EXAMPLE_FLEETS}


@pytest.fixture(scope="module")
def quick_report():
    """One min-cost comparison across the whole example matrix."""
    return run_fleet_compare(count=8, seed=0, objective="min-cost", **QUICK)


class TestGoldenOrdering:
    def test_arm_wins_throughput_per_dollar(self, quick_report):
        ranked = quick_report.ranked()
        assert ranked[0].fleet.name == "arm"
        by_name = {r.fleet.name: r for r in quick_report.results}
        # The cited papers' qualitative margin: Arm ≳ 1.5x x86 on
        # throughput per dollar for the same workload.
        assert (by_name["arm"].jobs_per_dollar
                > 1.5 * by_name["x86"].jobs_per_dollar)
        # Every priced-instance fleet beats the legacy flat-rate
        # Table IV config fleet.
        for name in ("x86", "arm", "mixed"):
            assert (by_name[name].jobs_per_dollar
                    > by_name["table4"].jobs_per_dollar)

    def test_smart_strictly_beats_random_on_every_fleet(self, quick_report):
        for result in quick_report.results:
            assert result.completed == 8 and result.failed == 0
            assert (result.cost_per_completed_usd
                    < result.control_cost_per_completed_usd), result.fleet.name
            assert result.cost_margin_vs_control_pct > 0.0

    def test_deterministic_for_fixed_seed(self, quick_report):
        again = run_fleet_compare(
            count=8, seed=0, objective="min-cost", **QUICK
        )
        assert again.to_payload() == quick_report.to_payload()


class TestParetoObjectives:
    def test_min_latency_respects_budget(self):
        # $0.03/hour per worker admits only the a1.xlarge cores
        # ($0.0255); the faster-but-pricier c6g.xlarge ($0.034) must
        # never be used even though min-latency would prefer it.
        config = ServiceConfig(
            fleet=parse_fleet_spec(FLEETS["arm"].spec),
            objective="min-latency",
            budget_usd=0.03,
            **QUICK,
        )
        service = TranscodeService(config, clock=VirtualClock())
        service.submit_many(table3_requests(8))
        report = service.run_until_idle()
        assert report.completed == 8 and report.failed == 0
        workers = {s.worker for s in service.statuses()}
        assert workers and all("a1.xlarge" in w for w in workers)

    def test_min_latency_unconstrained_prefers_fast_workers(self):
        config = ServiceConfig(
            fleet=parse_fleet_spec(FLEETS["arm"].spec),
            objective="min-latency",
            **QUICK,
        )
        service = TranscodeService(config, clock=VirtualClock())
        service.submit_many(table3_requests(4))
        report = service.run_until_idle()
        assert report.completed == 4
        # c6g runs ~1.5x faster per core than a1; with 4 free c6g cores
        # and 4 jobs, min-latency must use them exclusively.
        workers = {s.worker for s in service.statuses()}
        assert workers and all("c6g.xlarge" in w for w in workers)

    def test_infeasible_deadline_sheds_with_explicit_error(self):
        config = ServiceConfig(
            fleet=parse_fleet_spec(FLEETS["mixed"].spec),
            objective="min-cost",
            deadline_s=1e-9,
            **QUICK,
        )
        service = TranscodeService(config, clock=VirtualClock())
        service.submit_many(table3_requests(4))
        report = service.run_until_idle()
        assert report.completed == 0 and report.failed == 4
        for status in service.statuses():
            assert status.state == "failed"
            assert "no feasible worker under min-cost constraints" in (
                status.error or ""
            )


class TestArtifacts:
    def test_meta_roundtrip_render_and_diff(self, tmp_path):
        from repro.api import fleet_compare

        out = tmp_path / "fc"
        report = fleet_compare(
            count=4, seed=0, telemetry_dir=out, **QUICK
        )
        assert len(report.results) == len(EXAMPLE_FLEETS)
        run = load_run(out / "run.json")
        payload = run["meta"]["fleet_compare"]
        assert payload["objective"] == "min-cost"
        assert {f["fleet"]["name"] for f in payload["fleets"]} == set(FLEETS)
        rendered = render_run(run)
        assert "fleet-compare:" in rendered
        for name in FLEETS:
            assert name in rendered
        diffed = diff_runs(run, run)
        assert "fleet-compare throughput/$" in diffed
        assert "+0" in diffed  # identical runs diff to zero deltas

    def test_cli_quick_exits_zero_and_prints_table(self, capsys):
        assert main(["fleet-compare", "--quick", "--count", "4"]) == 0
        out = capsys.readouterr().out
        assert "best throughput/$:" in out
        for name in FLEETS:
            assert name in out

    def test_cli_custom_fleets_and_objective(self, capsys):
        code = main([
            "fleet-compare", "--quick", "--count", "4",
            "--objective", "min-latency",
            "--fleet", "cheap=a1.xlarge",
            "--fleet", "fast=c6g.xlarge",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "objective=min-latency" in out
        assert "cheap" in out and "fast" in out

    def test_cli_rejects_malformed_fleet_clause(self):
        with pytest.raises(SystemExit) as exc:
            main(["fleet-compare", "--fleet", "no-equals-sign"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["fleet-compare", "--fleet", "bad=not_a_config"])
        assert exc.value.code == 2
