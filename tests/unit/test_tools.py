"""The scripts under ``tools/`` name library internals; hold the names."""

from __future__ import annotations

import importlib.util
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
