"""The scripts under ``tools/`` name library internals; hold the names."""

from __future__ import annotations

import importlib.util
import inspect
import re
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

_TOOLS = Path(__file__).resolve().parents[2] / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


budget = _load("budget")

ROWS = {"transcode_ladder": 20, "fleet_replay": 8, "profile_grid": 27, "sweep_warm": 10}


@pytest.mark.parametrize("workload", sorted(ROWS))
def test_budget_stages_resolve(workload):
    """The tool wraps its stages by ``getattr`` when it runs; a renamed stage
    must fail here, not in the next person's stage table. A retired report's
    row must not resolve, or it would time something else."""
    table = budget.TABLES[workload]
    assert len(table.stages) == ROWS[workload]
    for label, owner, attr in table.stages:
        retired = owner is budget.EncodeTrace and attr in budget.RETIRED
        assert callable(getattr(owner, attr, None)) != retired, f"{label}: {owner!r}.{attr}"
    if workload == "profile_grid":  # every EncodeTrace report has a row
        reports = {attr for _, owner, attr in table.stages if owner is budget.EncodeTrace}
        public = {name for name in vars(budget.EncodeTrace) if not name.startswith("_")}
        assert public - {"heap_bytes"} <= reports
    if table.split:  # the geometry split reads (sets, ways) off arguments 3 and 4
        owner, attr = next((o, a) for label, o, a in table.stages if label == table.split[0])
        params = list(inspect.signature(getattr(owner, attr)).parameters)
        assert params[2:4] == ["n_sets", "assoc"]
    assert set(ROWS) == set(budget.TABLES)


def test_fleet_replay_top_row_is_the_step_simulate_runs(monkeypatch):
    """The fleet_replay table's top row wraps the module-level step that
    every ``simulate()`` call runs once, looked up by name as the tool
    wraps it: a row on a step ``simulate()`` bypassed would read 0 calls."""
    from repro.trace.events import TraceStream
    from repro.trace.kernels import build_program
    from repro.uarch.configs import baseline_config
    from repro.uarch.simulator import simulate

    _, owner, attr = budget.TABLES["fleet_replay"].stages[0]
    step, calls = getattr(owner, attr), []
    monkeypatch.setattr(owner, attr, lambda *args: calls.append(args) or step(*args))
    report = simulate(TraceStream(), build_program(), baseline_config())
    assert len(calls) == 1 and report.instructions == 0


def test_budget_accounting_on_a_toy_owner(monkeypatch):
    """Calls per row, nested inclusive times, the split by call arguments (and
    the lines each split call runs), the fastest pass, one count of a marked
    row inside another in the outermost sum, and glue + that sum = the whole
    pass, on a clock each toy function advances by a known cost."""
    clock = [0.0]
    monkeypatch.setattr(time, "perf_counter", lambda: clock[0])

    def spend(seconds: float) -> None:
        clock[0] += seconds

    class Toy:
        def outer(self):  # 1 s of its own, then 2 inner calls
            spend(1.0)
            self.inner()
            self.inner()

        def inner(self):  # 2 s of its own, then one leaf
            spend(2.0)
            self.leaf(1)

        def leaf(self, size):
            spend(4.0)

    toy = Toy()
    done = [0]

    def call(op):  # glue (8 s in the fastest of 3 passes), then the rows
        spend((9.0, 8.0, 10.0)[done[0] // 4])
        done[0] += 1
        toy.outer()  # 13 s, its marked leaves nested
        toy.leaf(2)  # 4 s, marked, on its own
        toy.inner()  # 6 s, unmarked, around a marked leaf

    stages = (
        ("outer*", Toy, "outer"), ("  inner", Toy, "inner"), ("    leaf*", Toy, "leaf"),
        ("gone", Toy, "gone"),  # a stage this checkout lacks
    )
    split = ("    leaf*", lambda args: args[1])  # by leaf's size
    table = budget.Table(
        stages, passes=3, repeats=2, split=split, split_lines=lambda args: 10 * args[1]
    )
    run = budget.measure(table, SimpleNamespace(ops=["a", "b"], call=call))

    assert run.ops == 4
    assert run.calls == {"outer*": 4, "  inner": 12, "    leaf*": 16, 1: 12, 2: 4}
    assert run.lines == {1: 12 * 10, 2: 4 * 20}
    assert run.row("gone").split()[1:] == ["0.0%", "0.0", "0.00"]
    assert run.seconds["outer*"] == 4 * 13.0
    assert run.seconds["  inner"] == 12 * 6.0
    assert run.seconds["    leaf*"] == run.seconds[1] + run.seconds[2] == 16 * 4.0
    assert run.whole == 4 * (8.0 + 13.0 + 4.0 + 6.0)
    # outer's leaves are inside its sum; the lone leaf and the one under the
    # unmarked inner are outermost, so each counts on its own
    assert run.seconds[budget.OUTER] == 4 * (13.0 + 4.0 + 4.0)
    glue = SimpleNamespace(hit_ratio=lambda: 1.0, cold=[None])
    assert budget._glue(glue, run) == [run.row(budget.GLUE)]
    assert run.seconds[budget.GLUE] + run.seconds[budget.OUTER] == run.whole
    assert run.seconds[budget.GLUE] == 4 * (8.0 + 2.0)


def test_budget_table_ends_with_peak_rss(monkeypatch, capsys):
    """Every table's last line but one is the process's peak RSS after
    set-up and after the passes; ``ru_maxrss`` never falls, so neither does
    the line."""
    toy = SimpleNamespace(ops=["a"], call=lambda op: None)
    table = budget.Table((), passes=2, setup=lambda tmp: toy)
    monkeypatch.setattr(budget, "TABLES", {"toy": table})
    assert budget.main(["toy"]) == 0
    line = capsys.readouterr().out.splitlines()[-2]
    match = re.fullmatch(
        r"peak RSS (\d+\.\d) MiB after set-up, (\d+\.\d) MiB after 2 passes", line
    )
    assert match, line
    set_up, passes = map(float, match.groups())
    assert 0 < set_up <= passes


def test_budget_table_ends_with_minor_faults_per_op(monkeypatch, capsys):
    """Every table's last line is the minor page faults taken over the timed
    passes, divided by the ops they ran: read before and after them, not
    around the set-up or the warm-up."""
    toy = SimpleNamespace(ops=["a", "b", "c"], call=lambda op: None)
    table = budget.Table((), passes=2, setup=lambda tmp: toy, unit="wave")
    reads = iter([1000, 1000 + 2 * 3 * 12.5])
    monkeypatch.setattr(budget, "minor_faults", lambda: next(reads))
    monkeypatch.setattr(budget, "TABLES", {"toy": table})
    assert budget.main(["toy"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == "minor page faults 12.5 per wave over 2 passes"
    assert next(reads, None) is None
