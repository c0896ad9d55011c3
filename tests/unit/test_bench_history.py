"""Bench history: artifact ingestion, ordering, rolling-window drift."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    BENCH_SCHEMA,
    collect_series,
    compare_bench,
    detect_drift,
    load_history,
    render_trend,
    trend_payload,
)


def _bench_artifact(rev, timestamp, kernel_speedups, encode_speedup):
    return {
        "schema": BENCH_SCHEMA,
        "rev": rev,
        "dirty": False,
        "timestamp": timestamp,
        "kernels": {
            name: {
                "blocks": 64.0,
                "backends": {"reference": 1000.0 * s, "vectorized": 1000.0},
                "speedups": {"vectorized": s},
            }
            for name, s in kernel_speedups.items()
        },
        "encode": {
            "backends": {"reference": encode_speedup, "vectorized": 1.0},
            "speedups": {"vectorized": encode_speedup},
        },
    }


def _write(dir_path, name, payload):
    path = dir_path / name
    path.write_text(json.dumps(payload) + "\n")
    return path


def _history(tmp_path, encode_speedups, kernel="transform.forward_4x4"):
    for i, s in enumerate(encode_speedups):
        _write(tmp_path, f"BENCH_rev{i}.json",
               _bench_artifact(f"rev{i}", 1000.0 + i, {kernel: s}, s))
    return load_history(tmp_path)


class TestLoadHistory:
    def test_orders_by_payload_timestamp_not_filename(self, tmp_path):
        # "aaa" sorts first by name but carries the *latest* timestamp.
        _write(tmp_path, "BENCH_aaa.json",
               _bench_artifact("aaa", 2000.0, {}, 3.0))
        _write(tmp_path, "BENCH_zzz.json",
               _bench_artifact("zzz", 1000.0, {}, 2.0))
        entries = load_history(tmp_path)
        assert [e.rev for e in entries] == ["zzz", "aaa"]

    def test_ignores_matrix_artifacts(self, tmp_path):
        # The deleted matrix compiler wrote these next to BENCH_*.json;
        # whatever they hold, they are not speedups and never ingested.
        _write(tmp_path, "BENCH_r1.json",
               _bench_artifact("r1", 1000.0, {"transform.forward_4x4": 3.0},
                               3.0))
        _write(tmp_path, "matrix.json", {
            "schema": "repro-bench-matrix/v1",
            "cells": [{"id": "clip=cricket", "status": "ok",
                       "metrics": {"encode_s": 0.2}}],
        })
        entries = load_history(tmp_path)
        assert [e.rev for e in entries] == ["r1"]
        assert set(collect_series(entries)) == {
            "kernel:transform.forward_4x4", "encode:fig3-slice",
        }

    def test_rejects_unknown_schema(self, tmp_path):
        _write(tmp_path, "BENCH_bad.json", {"schema": "other/v9"})
        with pytest.raises(ValueError, match="not a repro-bench/v2"):
            load_history(tmp_path)

    def test_rejects_v1_artifacts_by_name(self, tmp_path):
        # v1 rows had other names (e2e:...); mixing them into a v2
        # history would read as every series ending and new ones starting.
        _write(tmp_path, "BENCH_old.json", {
            "schema": "repro-bench/v1", "rev": "ab29421", "dirty": True,
            "kernels": {}, "e2e": {"speedup": 3.0},
        })
        with pytest.raises(ValueError, match="repro-bench/v2") as exc:
            load_history(tmp_path)
        assert "repro-bench/v1" in str(exc.value)

    def test_rejects_corrupt_json(self, tmp_path):
        (tmp_path / "BENCH_bad.json").write_text("{nope")
        with pytest.raises(ValueError, match="unreadable"):
            load_history(tmp_path)

    def test_rejects_non_directory(self, tmp_path):
        with pytest.raises(ValueError, match="not a directory"):
            load_history(tmp_path / "nope")


class TestDetectDrift:
    def test_single_run_is_insufficient_never_flagged(self, tmp_path):
        entries = _history(tmp_path, [3.0])
        verdicts = detect_drift(collect_series(entries))
        assert {v.status for v in verdicts} == {"insufficient"}
        assert not any(v.flagged for v in verdicts)

    def test_all_equal_runs_are_ok(self, tmp_path):
        entries = _history(tmp_path, [3.0, 3.0, 3.0, 3.0])
        for v in detect_drift(collect_series(entries)):
            assert v.status == "ok"
            assert v.drop_frac == pytest.approx(0.0)

    def test_missing_kernel_between_revisions_is_a_gap(self, tmp_path):
        _write(tmp_path, "BENCH_r0.json",
               _bench_artifact("r0", 1000.0, {"old.kernel": 2.0}, 3.0))
        _write(tmp_path, "BENCH_r1.json",
               _bench_artifact("r1", 2000.0, {"new.kernel": 1.5}, 3.0))
        series = collect_series(load_history(tmp_path))
        assert series["kernel:old.kernel"] == [2.0, None]
        assert series["kernel:new.kernel"] == [None, 1.5]
        verdicts = {v.series: v for v in detect_drift(series)}
        # One point each: insufficient, not drifted.
        assert verdicts["kernel:old.kernel"].status == "insufficient"
        assert verdicts["kernel:new.kernel"].status == "insufficient"

    def test_slow_drift_flagged_where_pairwise_gate_passes(self, tmp_path):
        # Four runs losing a little each time: 3.0 → 2.9 → 2.6 → 2.4.
        # The pairwise gate (current vs one baseline, 25% ratio) passes,
        # but median(last 3) = 2.6 < 3.0 * 0.9 trips the rolling window.
        speedups = [3.0, 2.9, 2.6, 2.4]
        entries = _history(tmp_path, speedups)
        verdicts = detect_drift(collect_series(entries), window=3, drift=0.10)
        assert all(v.status == "drift" for v in verdicts)
        first = _bench_artifact("rev0", 1000.0,
                                {"transform.forward_4x4": 3.0}, 3.0)
        last = _bench_artifact("rev3", 1003.0,
                               {"transform.forward_4x4": 2.4}, 2.4)
        _report, regressions = compare_bench(last, first, threshold=0.25)
        assert regressions == []

    def test_validates_window_and_drift(self):
        with pytest.raises(ValueError, match="window"):
            detect_drift({}, window=0)
        with pytest.raises(ValueError, match="drift"):
            detect_drift({}, drift=1.5)


class TestTrendPayload:
    def test_payload_shape_and_render(self, tmp_path):
        entries = _history(tmp_path, [3.0, 2.9, 2.6, 2.4])
        trend = trend_payload(entries, window=3, drift=0.10)
        assert trend["schema"] == "repro-bench-trend/v1"
        assert trend["window"] == 3
        assert len(trend["entries"]) == 4
        assert [e["rev"] for e in trend["entries"]] == [
            "rev0", "rev1", "rev2", "rev3"]
        flagged = [v for v in trend["verdicts"] if v["status"] == "drift"]
        assert flagged
        text = render_trend(trend)
        assert "encode:fig3-slice" in text
        assert "DRIFT" in text
        assert "rev0" in text and "rev3" in text

    def test_render_reports_no_drift(self, tmp_path):
        entries = _history(tmp_path, [3.0, 3.0, 3.0])
        text = render_trend(trend_payload(entries))
        assert "no drift" in text

    def test_gap_renders_as_dot_in_sparkline(self, tmp_path):
        _write(tmp_path, "BENCH_r0.json",
               _bench_artifact("r0", 1000.0, {"a.kernel": 2.0}, 3.0))
        _write(tmp_path, "BENCH_r1.json",
               _bench_artifact("r1", 2000.0, {}, 3.1))
        _write(tmp_path, "BENCH_r2.json",
               _bench_artifact("r2", 3000.0, {"a.kernel": 2.1}, 3.2))
        text = render_trend(trend_payload(load_history(tmp_path)))
        assert "·" in text
