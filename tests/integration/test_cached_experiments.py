"""Every cached experiment keeps the sweep's fault-tolerance contract.

Table I, Fig 8 and Fig 9 run their missing units through the sweep
runner's miss path (``runner.compute_misses``): a unit is stored the
moment it lands, a store that fails degrades to an in-memory result, a
unit that fails ends the run partial (``SweepFailure``) after the others
are stored, and a stored value the reader refuses is quarantined and
recomputed. Each test runs at the micro scale of
``tests/unit/experiments/test_figure_results.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import fig8_compiler, fig9_scheduler, parallel, tables
from repro.experiments.cache import ResultCache
from repro.experiments.runner import CellFailure, ExperimentScale, SweepFailure
from repro.obs.export import render_run
from repro.obs.session import telemetry_session
from repro.resilience.faults import install_plan
from repro.resilience.retry import RetryPolicy, install_policy

MICRO = ExperimentScale(
    name="micro-fig",
    width=48,
    height=32,
    n_frames=5,
    crf_values=(23,),
    refs_values=(1,),
    sweep_video="cricket",
    videos=("desktop", "cricket", "hall"),
    data_capacity_scale=16.0,
    fig8_combos=1,
)

#: Each experiment's run and the text a run must reproduce.
EXPERIMENTS = {
    "tab1": lambda: tables.tab1(MICRO).render(),
    "fig8": lambda: fig8_compiler.run(MICRO).render(),
    "fig9": lambda: fig9_scheduler.run(MICRO).render(),
}
UNITS = {"tab1": 15, "fig8": 3, "fig9": 4}


@pytest.fixture(scope="module")
def clean():
    """Each experiment's render with no cache and no faults."""
    parallel.configure(jobs=1, cache_dir=None)
    install_plan(None)
    return {name: run() for name, run in EXPERIMENTS.items()}


@pytest.fixture
def one_attempt(tmp_path):
    """Serial engine, a result cache under ``tmp_path``, one attempt."""
    parallel.configure(jobs=1, cache_dir=tmp_path / "cache")
    install_policy(RetryPolicy(max_attempts=1, base_delay=0.0, jitter=0.0))
    return ResultCache(tmp_path / "cache")


def _run(name: str) -> tuple[str, dict[str, object]]:
    with telemetry_session() as tel:
        text = EXPERIMENTS[name]()
    return text, tel.metrics.as_dict()


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_a_failed_cache_write_degrades_to_the_clean_result(
    name, clean, one_attempt
):
    install_plan("cache.write,raise=OSError")
    text, metrics = _run(name)
    assert text == clean[name]
    assert metrics["cache.write_giveups"] == UNITS[name]
    assert metrics[f"{name}.disk_write_failures"] == UNITS[name]
    assert one_attempt.stats().entries == 0


def test_tab1_cli_exits_0_under_a_failed_cache_write(tmp_path, monkeypatch):
    from repro.cli import main

    monkeypatch.setenv("REPRO_RETRY_ATTEMPTS", "1")
    assert main([
        "tab1", "--cache-dir", str(tmp_path / "cache"),
        "--fault-plan", "cache.write,raise=OSError",
    ]) == 0


def test_a_failed_fig9_task_is_partial_and_a_rerun_finishes_it(
    clean, one_attempt
):
    install_plan("casestudy.simulate,match=2,raise=InjectedFault")
    with pytest.raises(SweepFailure) as excinfo:
        fig9_scheduler.run(MICRO)
    failure = excinfo.value
    assert (failure.completed, failure.total) == (3, 4)
    [cell] = failure.failures
    assert (cell.video, cell.crf, cell.refs, cell.preset) == ("holi", 10, 1, "slow")
    assert (cell.error, cell.attempts) == ("InjectedFault", 1)
    assert one_attempt.stats().entries == 3

    install_plan(None)
    text, metrics = _run("fig9")
    assert metrics["fig9.cache_hits"] == 3
    assert text == clean["fig9"]
    assert one_attempt.stats().entries == 4


def test_a_failed_fig9_task_exits_3_with_one_failure_row(
    tmp_path, monkeypatch, capsys
):
    from repro.cli import main
    from repro.experiments.runner import SCALES

    monkeypatch.setitem(SCALES, "quick", MICRO)
    monkeypatch.setenv("REPRO_RETRY_ATTEMPTS", "1")
    out = tmp_path / "out"
    assert main([
        "fig9", "--cache-dir", str(tmp_path / "cache"), "--telemetry", str(out),
        "--fault-plan", "casestudy.simulate,match=2,raise=InjectedFault",
    ]) == 3
    err = capsys.readouterr().err
    assert "failed cell holi crf=10 refs=1 preset=slow: InjectedFault" in err
    run = json.loads((out / "run.json").read_text())
    assert run["status"] == "partial"
    assert [f["video"] for f in run["failures"]] == ["holi"]
    assert ResultCache(tmp_path / "cache").stats().entries == 3


def _damage_first_entry(cache: ResultCache, damage) -> None:
    path = cache._entry_paths()[0]
    envelope = json.loads(path.read_text())
    envelope["payload"] = damage(envelope["payload"])
    path.write_text(json.dumps(envelope))


@pytest.mark.parametrize(
    "name, damage",
    [
        ("tab1", lambda payload: "oops"),
        ("fig9", lambda payload: {k: v for k, v in payload.items()
                                  if k != "task_id"}),
    ],
    ids=["tab1-oops", "fig9-no-task-id"],
)
def test_a_refused_entry_is_quarantined_and_recomputed(
    name, damage, clean, one_attempt
):
    EXPERIMENTS[name]()  # cold fill
    _damage_first_entry(one_attempt, damage)
    text, metrics = _run(name)
    assert text == clean[name]
    assert metrics["cache.quarantined"] == 1
    assert one_attempt.stats().corrupt == 1
    assert one_attempt.stats().entries == UNITS[name]


class TestFailureRowsWithoutAnEncode:
    """A Fig 8 or Table I unit is a clip, not one encode: its failure row
    leaves crf, refs and preset null, and nothing prints them."""

    FAILURE = CellFailure(
        video="desktop", crf=None, refs=None, preset=None, key="k" * 64,
        error="InjectedFault", message="boom", attempts=1,
    )

    def test_describe_leaves_null_fields_out(self):
        assert self.FAILURE.describe() == "desktop"
        encode = CellFailure("holi", 10, 1, "slow", "k", "E", "m", 1)
        assert encode.describe() == "holi crf=10 refs=1 preset=slow"

    def test_report_prints_a_dash_for_a_null_field(self):
        artifact = {
            "experiment": "fig8", "scale": "quick", "status": "partial",
            "git_rev": "abc", "wall_seconds": 1.0, "schema_version": 1,
            "metrics": {}, "topdown": {}, "spans": {},
            "failures": [self.FAILURE.as_dict()],
        }
        text = render_run(artifact)
        row = next(line for line in text.splitlines() if "desktop" in line)
        cells = [c for c in row.split() if c != "|"]
        assert cells == ["desktop", "-", "-", "-", "InjectedFault", "1"]
        assert "None" not in text and "?" not in text
