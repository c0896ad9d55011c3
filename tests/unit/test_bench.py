"""Bench harness: workload wiring, artifact roundtrip, regression gate."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    BENCH_SCHEMA,
    KERNEL_BENCH_NAMES,
    bench_artifact_path,
    compare_bench,
    load_bench,
    render_bench,
    run_encode_fig3,
    run_kernel_benches,
    write_bench,
)
from repro.bench.report import build_payload
from repro.obs import MetricsRegistry


def _fake_payload(kernel_speedups, encode_speedup, rev="abc1234"):
    kernels = {
        name: {
            "blocks": 64.0,
            "backends": {"reference": 1000.0 * s, "vectorized": 1000.0},
            "speedups": {"vectorized": s},
        }
        for name, s in kernel_speedups.items()
    }
    times = {"reference": encode_speedup, "vectorized": 1.0}
    speedups = {"vectorized": encode_speedup}
    encode = {
        "width": 112,
        "height": 64,
        "n_frames": 8,
        "cells": [
            {"crf": 23, "refs": 1, "backends": times, "speedups": speedups},
        ],
        "backends": times,
        "speedups": speedups,
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
        assert set(row) == {"blocks", "backends", "speedups"}
        assert row["blocks"] > 0
        assert row["backends"]["reference"] > 0
        assert row["backends"]["vectorized"] > 0
        assert row["speedups"]["vectorized"] == pytest.approx(
            row["backends"]["reference"] / row["backends"]["vectorized"]
        )
        assert "reference" not in row["speedups"]
    metrics = registry.as_dict()
    assert "bench.kernel.transform.forward_4x4.reference_s" in metrics
    assert "bench.kernel.transform.forward_4x4.vectorized_s" in metrics


def test_run_encode_fig3_single_cell():
    registry = MetricsRegistry()
    encode = run_encode_fig3(registry, reps=1, cells=((23, 1),), n_frames=2)
    assert encode["n_frames"] == 2
    (cell,) = encode["cells"]
    assert (cell["crf"], cell["refs"]) == (23, 1)
    # One cell: the slice totals are that cell's numbers, stored once
    # per level under the same two keys.
    assert encode["backends"] == cell["backends"]
    assert encode["backends"]["reference"] > 0
    assert encode["speedups"]["vectorized"] == pytest.approx(
        encode["backends"]["reference"] / encode["backends"]["vectorized"]
    )
    assert "bench.encode.crf23_refs1.reference_s" in registry.as_dict()


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
    for schema in ("other/v9", "repro-bench/v1"):
        path.write_text(json.dumps({"schema": schema, "kernels": {}}))
        with pytest.raises(ValueError, match="not a repro-bench/v2") as exc:
            load_bench(path)
        assert schema in str(exc.value)


def test_load_bench_rejects_malformed_v2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": BENCH_SCHEMA, "kernels": {}}))
    with pytest.raises(ValueError, match="malformed repro-bench/v2"):
        load_bench(path)
    # Not a ratio of two timings: NaN or -1 would pass every row, 0 would
    # crash the compare after the whole measurement.
    for bad in (float("nan"), float("inf"), 0.0, -1.0):
        payload = _fake_payload({"transform.forward_4x4": 3.0}, 3.0)
        payload["kernels"]["transform.forward_4x4"]["speedups"]["vectorized"] = bad
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="kernel:transform.forward_4x4"):
            load_bench(path)


def test_provenance_comes_from_the_package_checkout(tmp_path, monkeypatch):
    # `repro bench` launched from inside another repository must stamp
    # the revision of the code it measured, not of the cwd.
    import subprocess

    from repro import obs

    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    monkeypatch.chdir(tmp_path)
    payload = build_payload({}, {}, MetricsRegistry())
    assert payload["rev"] == obs.git_revision()


def test_render_bench_mentions_workloads():
    payload = _fake_payload({"transform.forward_4x4": 3.5}, 3.0)
    text = render_bench(payload)
    assert "transform.forward_4x4" in text
    assert "3.50x" in text
    assert "fig3 encode slice" in text


def test_compare_no_regression():
    base = _fake_payload({"transform.forward_4x4": 3.0}, 3.0)
    cur = _fake_payload({"transform.forward_4x4": 2.9}, 2.8, rev="def5678")
    report, regressions = compare_bench(cur, base)
    assert regressions == []
    assert report.splitlines()[0] == (
        "comparing def5678 against baseline abc1234 "
        "(threshold: -25% encode, -50% kernels)"
    )
    assert "no regressions" in report


def test_compare_flags_encode_regression():
    base = _fake_payload({"transform.forward_4x4": 3.0}, 3.0)
    cur = _fake_payload({"transform.forward_4x4": 3.0}, 2.0, rev="def5678")
    report, regressions = compare_bench(cur, base)
    assert regressions == ["encode:fig3-slice"]
    assert "REGRESSION" in report


def test_compare_kernel_threshold_is_looser():
    # A 40% kernel drop is within the doubled (50%) kernel threshold, but
    # the same drop on the encode slice trips the 25% gate.
    base = _fake_payload({"transform.forward_4x4": 3.0}, 3.0)
    cur = _fake_payload({"transform.forward_4x4": 1.8}, 3.0, rev="def5678")
    _, regressions = compare_bench(cur, base)
    assert regressions == []
    cur2 = _fake_payload({"transform.forward_4x4": 1.4}, 3.0, rev="def5678")
    _, regressions2 = compare_bench(cur2, base)
    assert regressions2 == ["kernel:transform.forward_4x4"]


def test_compare_one_sided_workloads_not_regressions():
    base = _fake_payload({"transform.forward_4x4": 3.0, "old.kernel": 2.0}, 3.0)
    # A baseline from when a since-deleted backend recorded its ratios
    # too: only the vectorized one is tracked, the rest is ignored.
    base["kernels"]["old.kernel"]["speedups"] = {"vectorized": 2.0, "batched": 9.0}
    base["encode"]["speedups"] = {"vectorized": 3.0, "batched": 9.0}
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
