"""The scripts under ``tools/`` name library internals; hold the names."""

from __future__ import annotations

import importlib.util
import inspect
from pathlib import Path

_TOOLS = Path(__file__).resolve().parents[2] / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_encode_budget_stages_resolve():
    """The tool wraps its stages by ``getattr`` when it runs; a renamed
    stage method must fail here, not in the next person's budget run."""
    budget = _load("encode_budget")
    assert len(budget.STAGES) == 20
    for label, owner, attr in budget.STAGES:
        assert callable(getattr(owner, attr, None)), f"{label}: {owner!r} has no {attr}"


def test_trace_budget_stages_resolve():
    """The same for the trace side's stage table: every ``EncodeTrace``
    report, the per-frame batch, the recorder's appends and the seal."""
    budget = _load("trace_budget")
    assert len(budget.STAGES) == 23
    for label, owner, attr, _ in budget.STAGES:
        assert callable(getattr(owner, attr, None)), f"{label}: {owner!r} has no {attr}"
    reports = {attr for _, owner, attr, _ in budget.STAGES if owner.__name__ == "EncodeTrace"}
    public = {name for name in vars(budget.EncodeTrace) if not name.startswith("_")}
    assert public - {"heap_bytes"} <= reports


def test_sim_budget_stages_resolve():
    """The same for the simulator's stage table, whose geometry split reads
    the sets and ways off ``_lru_window``'s third and fourth arguments."""
    budget = _load("sim_budget")
    assert len(budget.STAGES) == 8
    for label, owner, attr in budget.STAGES:
        assert callable(getattr(owner, attr, None)), f"{label}: {owner!r} has no {attr}"
    owner, attr = next(
        (owner, attr) for label, owner, attr in budget.STAGES if label == budget.BY_GEOMETRY
    )
    params = list(inspect.signature(getattr(owner, attr)).parameters)
    assert params[2:4] == ["n_sets", "assoc"]


def test_cache_budget_stages_resolve():
    """The same for the warm lookup's stage table: spec build, memo key,
    lookup, content key, entry read, JSON parse and record rebuild."""
    budget = _load("cache_budget")
    assert len(budget.STAGES) == 9
    for label, owner, attr in budget.STAGES:
        assert callable(getattr(owner, attr, None)), f"{label}: {owner!r} has no {attr}"
