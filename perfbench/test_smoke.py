"""Schema smoke test: ``pytest perfbench`` (outside the tier-1 ``testpaths``).

Runs the suite once with ``--smoke --trace`` (reduced op lists, 1 s windows)
and checks what later PRs rely on: every workload and metric named in
``/BENCHMARK.json`` comes out with its unit, the contract's limits hold, the
per-layer rows add up to the whole op where the design says they must, and
the span file is a forest.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from perfbench.common import ROOT, WORKLOAD_NAMES, load_contract

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench") / "smoke.json"
    subprocess.run(
        [sys.executable, "-m", "perfbench", "--smoke", "--trace", "--out", str(out)],
        cwd=ROOT, check=True, timeout=300,
    )
    return json.loads(out.read_text(encoding="utf-8"))


def test_contract_limits():
    contract = load_contract()
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOAD_NAMES)
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    assert 1 <= contract["run_seconds"] <= 60
    names = [
        m["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for m in contract[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in contract["end_to_end"])
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])


def test_every_metric_present_with_unit(suite):
    contract = load_contract()
    assert list(suite["workloads"]) == list(WORKLOAD_NAMES)
    for entry in suite["workloads"].values():
        assert entry["failed"] == 0 and entry["attempted"] >= 1
        for kind in ("end_to_end", "per_layer"):
            expected = {m["name"]: m["unit"] for m in contract[kind]}
            got = {name: slot["unit"] for name, slot in entry[kind].items()}
            assert got == expected
        assert all(slot["values"][0] > 0 for slot in entry["end_to_end"].values())


def test_layer_rows_sum_to_the_whole_op(suite):
    # A smoke run has two (whole, decomposed) pairs, so the tolerance is far
    # wider than the 0.95-1.05 a full traced run on a quiet host is held to.
    for workload in ("profile_grid", "fleet_replay"):
        frac = suite["workloads"][workload]["per_layer"]["bench.layer_sum_frac"]
        assert 0.7 <= frac["values"][0] <= 1.4


def test_design_shares(suite):
    rows = {w: {k: v["values"][0] for k, v in e["per_layer"].items()}
            for w, e in suite["workloads"].items()}
    ladder, fleet, warm = rows["transcode_ladder"], rows["fleet_replay"], rows["sweep_warm"]
    assert ladder["bench.layer_sum_frac"] >= 0.8  # codec rows carry the op
    assert fleet["uarch.simulate_s"] >= 0.8 * (fleet["service.submit_s"] + fleet["service.drain_s"])
    assert warm["experiments.hit_ratio"] == 1.0
    assert not any(v for k, v in warm.items() if k.startswith(("codec.", "uarch.")))


def test_spans_form_a_forest(suite):
    for workload, entry in suite["workloads"].items():
        with open(entry["spans"], encoding="utf-8") as handle:
            events = json.load(handle)["traceEvents"]
        ids = {e["args"]["id"] for e in events}
        assert events and all(e["args"]["workload"] == workload for e in events)
        assert all(e["args"]["parent"] is None or e["args"]["parent"] in ids for e in events)
        if workload == "sweep_warm":
            assert not any(e["name"].startswith(("codec.", "uarch.")) for e in events)
