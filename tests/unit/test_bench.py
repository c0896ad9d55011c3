"""Bench harness: workload wiring, artifact roundtrip, regression gate."""

from __future__ import annotations

import json

import pytest

from repro.bench.harness import KERNEL_BENCH_NAMES, run_encode_fig3, run_kernel_benches
from repro.bench.report import (
    BENCH_SCHEMA,
    bench_artifact_path,
    build_payload,
    compare_bench,
    load_bench,
    render_bench,
    write_bench,
)
from repro.obs.metrics import MetricsRegistry


def _fake_payload(kernel_costs, encode_cost, rev="abc1234"):
    kernels = {
        name: {
            "blocks": 64.0,
            "ns_per_block": 1000.0 * cost,
            "calibration_s": 0.01,
            "cost": cost,
        }
        for name, cost in kernel_costs.items()
    }
    encode = {
        "width": 112,
        "height": 64,
        "n_frames": 8,
        "cells": [{"crf": 23, "refs": 1, "seconds": 0.5, "cost": encode_cost}],
        "seconds": 0.5,
        "cost": encode_cost,
    }
    payload = build_payload(kernels, encode, MetricsRegistry())
    payload["rev"] = rev
    # Pin provenance: build_payload stamps the *ambient* tree state, and
    # these tests must not depend on whether the checkout is dirty.
    payload["dirty"] = False
    return payload


def test_run_kernel_benches_subset():
    registry = MetricsRegistry()
    names = ["transform.forward_4x4", "entropy.encode_blocks"]
    results = run_kernel_benches(registry, reps=1, names=names)
    assert sorted(results) == sorted(names)
    for row in results.values():
        assert set(row) == {"blocks", "ns_per_block", "calibration_s", "cost"}
        assert row["blocks"] > 0
        assert row["ns_per_block"] > 0
        assert row["calibration_s"] > 0
        # The cost is the best time in units of the calibration kernel.
        assert row["cost"] == pytest.approx(
            row["ns_per_block"] * row["blocks"] / 1e9 / row["calibration_s"]
        )
    assert "bench.kernel.transform.forward_4x4_s" in registry.as_dict()


def test_run_encode_fig3_single_cell():
    registry = MetricsRegistry()
    encode = run_encode_fig3(registry, reps=1, cells=((23, 1),), n_frames=2)
    assert encode["n_frames"] == 2
    (cell,) = encode["cells"]
    assert (cell["crf"], cell["refs"]) == (23, 1)
    # One cell: the slice totals are that cell's numbers, stored once
    # per level under the same two keys.
    assert (encode["seconds"], encode["cost"]) == (cell["seconds"], cell["cost"])
    assert encode["seconds"] > 0 and encode["cost"] > 0
    assert "bench.encode.crf23_refs1_s" in registry.as_dict()


def test_calibration_kernel_matches_perfbench():
    """Restated, not imported: the ruler is perfbench's calibration kernel
    (the same work, so the same result)."""
    import importlib.util
    from pathlib import Path

    from repro.bench.harness import calibration_kernel

    path = Path(__file__).resolve().parents[2] / "perfbench" / "calibrate.py"
    spec = importlib.util.spec_from_file_location("perfbench_calibrate", path)
    calibrate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(calibrate)
    assert calibration_kernel() == calibrate.kernel()


def test_kernel_bench_names_stable():
    # The baseline artifact keys off these names; renames are breaking.
    assert "transform.forward_4x4" in KERNEL_BENCH_NAMES
    assert "motion.subpel_refine" in KERNEL_BENCH_NAMES
    assert len(KERNEL_BENCH_NAMES) == len(set(KERNEL_BENCH_NAMES))


def test_write_load_roundtrip(tmp_path):
    payload = _fake_payload({"transform.forward_4x4": 3.0}, 3.0)
    path = write_bench(payload, tmp_path / "BENCH_test.json")
    assert path.read_text().endswith("\n")
    assert load_bench(path) == payload
    assert bench_artifact_path(payload, tmp_path).name == "BENCH_abc1234.json"


def test_payload_records_provenance():
    payload = _fake_payload({"transform.forward_4x4": 3.0}, 3.0)
    assert isinstance(payload["dirty"], bool)
    assert isinstance(payload["timestamp"], float)
    assert payload["timestamp"] > 0


def test_dirty_payload_suffixes_artifact_name(tmp_path):
    payload = _fake_payload({"transform.forward_4x4": 3.0}, 3.0)
    payload["dirty"] = True
    assert (
        bench_artifact_path(payload, tmp_path).name
        == "BENCH_abc1234+dirty.json"
    )


def test_render_bench_marks_dirty():
    payload = _fake_payload({"transform.forward_4x4": 3.0}, 3.0)
    assert "+dirty" not in render_bench(payload)
    payload["dirty"] = True
    assert "abc1234+dirty" in render_bench(payload)


def test_load_bench_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.json"
    for schema in ("other/v9", "repro-bench/v1", "repro-bench/v2"):
        path.write_text(json.dumps({"schema": schema, "kernels": {}}))
        with pytest.raises(ValueError, match="not a repro-bench/v3") as exc:
            load_bench(path)
        assert schema in str(exc.value)


def test_load_bench_rejects_malformed_v2(tmp_path):
    """A malformed artifact of the current schema (the name predates v3)."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": BENCH_SCHEMA, "kernels": {}}))
    with pytest.raises(ValueError, match="malformed repro-bench/v3"):
        load_bench(path)
    # Not a ratio of two timings: NaN or -1 would pass every row, 0 would
    # crash the compare after the whole measurement.
    for bad in (float("nan"), float("inf"), 0.0, -1.0):
        payload = _fake_payload({"transform.forward_4x4": 3.0}, 3.0)
        payload["kernels"]["transform.forward_4x4"]["cost"] = bad
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="kernel:transform.forward_4x4"):
            load_bench(path)


def test_provenance_comes_from_the_package_checkout(tmp_path, monkeypatch):
    # `repro bench` launched from inside another repository must stamp
    # the revision of the code it measured, not of the cwd.
    import subprocess

    from repro.obs.export import git_revision

    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    monkeypatch.chdir(tmp_path)
    payload = build_payload({}, {}, MetricsRegistry())
    assert payload["rev"] == git_revision()


def test_render_bench_mentions_workloads():
    payload = _fake_payload({"transform.forward_4x4": 3.5}, 3.0)
    text = render_bench(payload)
    assert "transform.forward_4x4" in text
    assert " 3.5\n" in text
    assert "fig3 encode slice" in text
    assert "cost 3.00" in text


def test_compare_no_regression():
    base = _fake_payload({"transform.forward_4x4": 3.0}, 3.0)
    cur = _fake_payload({"transform.forward_4x4": 3.1}, 3.2, rev="def5678")
    report, regressions = compare_bench(cur, base)
    assert regressions == []
    assert report.splitlines()[0] == (
        "comparing def5678 against baseline abc1234 "
        "(threshold: +25% encode, +50% kernels)"
    )
    assert "no regressions" in report


def test_compare_flags_encode_regression():
    base = _fake_payload({"transform.forward_4x4": 3.0}, 3.0)
    cur = _fake_payload({"transform.forward_4x4": 3.0}, 4.0, rev="def5678")
    report, regressions = compare_bench(cur, base)
    assert regressions == ["encode:fig3-slice"]
    assert "REGRESSION" in report


def test_compare_kernel_threshold_is_looser():
    # A 40% kernel rise is within the doubled (50%) kernel threshold, but
    # the same rise on the encode slice trips the 25% gate.
    base = _fake_payload({"transform.forward_4x4": 3.0}, 3.0)
    cur = _fake_payload({"transform.forward_4x4": 4.2}, 3.0, rev="def5678")
    _, regressions = compare_bench(cur, base)
    assert regressions == []
    cur2 = _fake_payload({"transform.forward_4x4": 4.6}, 4.2, rev="def5678")
    _, regressions2 = compare_bench(cur2, base)
    assert regressions2 == ["encode:fig3-slice", "kernel:transform.forward_4x4"]


def test_compare_one_sided_workloads_not_regressions():
    base = _fake_payload({"transform.forward_4x4": 3.0, "old.kernel": 2.0}, 3.0)
    cur = _fake_payload({"transform.forward_4x4": 3.0, "new.kernel": 1.0}, 3.0)
    report, regressions = compare_bench(cur, base)
    assert regressions == []
    removed = [line.split()[0] for line in report.splitlines() if "(removed)" in line]
    assert removed == ["kernel:old.kernel"]
    assert "(new)" in report


def test_payload_schema_and_metrics():
    payload = _fake_payload({"transform.forward_4x4": 3.0}, 3.0)
    assert payload["schema"] == BENCH_SCHEMA
    assert set(payload["host"]) == {"python", "numpy", "machine"}
    assert isinstance(payload["metrics"], dict)
