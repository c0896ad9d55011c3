"""Unit tests for the fleet-compare section of ``repro report``.

Drives ``render_run``'s ``meta.fleet_compare`` cost table (the owner's
``FleetCompareReport.render``) and ``diff_runs``' throughput/$
comparison from hand-built payloads (no service runs), pinning the
section headers, row content, ranking order, and the only-one-run /
missing-section edge cases.
"""

from __future__ import annotations

from repro.obs import session as obs
from repro.obs.export import build_run_artifact, diff_runs, render_run


def _fleet_row(name: str, jobs_per_dollar: float, **overrides) -> dict:
    row = {
        "fleet": {"name": name, "spec": "c5.xlarge", "description": ""},
        "workers": 4,
        "hourly_usd": 0.25,
        "completed": 8,
        "failed": 0,
        "jobs_per_dollar": jobs_per_dollar,
        "e2e_p99_s": 0.5,
        "cost_per_completed_usd": 4.2e-6,
        "makespan_s": 1.25,
        "control_cost_per_completed_usd": 5.0e-6,
        "control_jobs_per_dollar": jobs_per_dollar * 0.8,
        "control_e2e_p99_s": 0.4,
        "cost_margin_vs_control_pct": 16.0,
    }
    row.update(overrides)
    return row


def _artifact(fleets: list[dict] | None, **fc_overrides) -> dict:
    with obs.telemetry_session() as tel:
        with obs.span("fleet_compare"):
            obs.inc("service.jobs_submitted")
        if fleets is not None:
            tel.meta["fleet_compare"] = {
                "objective": "min-cost",
                "mix": "table3",
                "count": 8,
                "seed": 0,
                "deadline_s": None,
                "budget_usd": None,
                "fleets": fleets,
                **fc_overrides,
            }
    return build_run_artifact(
        tel, experiment="fleet-compare", scale="min-cost", wall_seconds=1.0
    )


class TestRenderRunFleetSection:
    def test_renders_rows_ranked_by_jobs_per_dollar(self):
        art = _artifact([
            _fleet_row("x86", 100.0),
            _fleet_row("arm", 300.0),
        ])
        text = render_run(art)
        assert "fleet-compare — objective=min-cost" in text
        assert "jobs/$" in text and "vs random" in text
        # Best throughput/$ renders first regardless of payload order.
        assert text.index("arm") < text.index("x86")
        assert "+16.0%" in text

    def test_constraints_appear_in_header_when_set(self):
        art = _artifact(
            [_fleet_row("arm", 300.0)], deadline_s=2.5, budget_usd=0.05
        )
        text = render_run(art)
        assert "deadline=2.5s" in text
        assert "budget=$0.05/h" in text

    def test_section_absent_without_meta(self):
        assert "fleet-compare —" not in render_run(_artifact(None))


class TestDiffRunsFleetSection:
    def test_diffs_jobs_per_dollar_per_fleet(self):
        a = _artifact([_fleet_row("arm", 200.0)])
        b = _artifact([_fleet_row("arm", 250.0)])
        text = diff_runs(a, b)
        assert "fleet-compare throughput/$" in text
        assert "arm" in text
        assert "+50" in text
        assert "(+25.00%)" in text

    def test_fleet_missing_from_one_run(self):
        a = _artifact([_fleet_row("arm", 200.0)])
        b = _artifact([_fleet_row("arm", 200.0), _fleet_row("x86", 90.0)])
        text = diff_runs(a, b)
        assert "x86" in text
        assert "(only one run)" in text

    def test_section_absent_when_neither_run_compared_fleets(self):
        a = _artifact(None)
        assert "fleet-compare throughput/$" not in diff_runs(a, a)
