"""Integration: parallel sweeps are bit-identical to serial ones, and a
warm persistent cache eliminates every encoder call.

The sweep engine's contract (ISSUE 2 acceptance criteria):

- serial and ``--jobs 2`` runs of the Fig 3 grid produce identical
  ``SweepRecord`` payloads cell-by-cell, also when a worker task fails
  transiently and is retried;
- the parent synthesizes each clip once before the pool forks, and the
  workers inherit it instead of synthesizing their own;
- a second, cache-warm invocation performs **zero** encoder calls,
  asserted via the obs kernel-call counters.
"""

from __future__ import annotations

import pytest

from repro import resilience
from repro.cli import main
from repro.experiments.cache import ResultCache, record_to_payload
from repro.experiments.runner import QUICK, SweepRunner
from repro.obs import load_run, telemetry_session
from repro.resilience import RetryPolicy
from repro.video import vbench

#: QUICK proxy geometry with a trimmed crf x refs grid: the determinism
#: property is per-cell, so six cells prove it as well as 24 would.
SCALE = QUICK.with_updates(
    name="quick-det", crf_values=(1, 23, 51), refs_values=(1, 4)
)


@pytest.fixture(scope="module")
def serial_records():
    return SweepRunner(SCALE, jobs=1, cache=False).crf_refs_sweep()


class TestSerialParallelDeterminism:
    def test_fig3_sweep_identical_cell_by_cell(self, serial_records):
        parallel_records = SweepRunner(SCALE, jobs=2, cache=False).crf_refs_sweep()
        assert len(parallel_records) == len(serial_records) == 6
        for serial, par in zip(serial_records, parallel_records):
            assert record_to_payload(serial) == record_to_payload(par), (
                f"cell (crf={serial.crf}, refs={serial.refs}) diverged "
                f"under --jobs 2"
            )

    def test_parallel_merges_worker_metrics(self, tmp_path):
        """The parent session aggregates the fan-out's counters exactly
        as a serial run would."""
        with telemetry_session() as tel:
            SweepRunner(SCALE, jobs=2, cache=False).crf_refs_sweep()
            metrics = tel.metrics.as_dict()
        assert metrics["sweep.profiles"] == 6
        assert metrics["parallel.fan_outs"] == 1
        kernel_counters = [
            k for k in metrics if k.startswith("encoder.kernel_calls.")
        ]
        assert kernel_counters, "worker kernel-call counters must merge back"


class TestWorkers:
    """What a forked pool worker gets from, and gives back to, the parent."""

    def test_transient_faults_retry_to_identical(self, serial_records):
        # The injected exception fires at most once per worker process
        # (max=1); the retry lands on a clean worker and must produce
        # the same bytes.
        resilience.configure(
            fault_plan="worker.task,match=2,max=1,raise=InjectedFault",
            retry=RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0),
        )
        records = SweepRunner(SCALE, jobs=2, cache=False).crf_refs_sweep()
        assert [record_to_payload(r) for r in records] == [
            record_to_payload(r) for r in serial_records
        ]

    def test_inherit_the_parents_clips(self, monkeypatch):
        """Merged ``video.loads`` counts every synthesis in the parent
        *and* its workers: two clips, two loads — both the parent's,
        whose memo is the only one that outlives the pool."""
        clips: dict = {}
        monkeypatch.setattr(vbench, "_CLIPS", clips)
        scale = SCALE.with_updates(name="quick-two", videos=("desktop", "holi"))
        with telemetry_session() as tel:
            records = SweepRunner(scale, jobs=2, cache=False).video_sweep()
            metrics = tel.metrics.as_dict()
        assert [r.video for r in records] == ["desktop", "holi"]
        assert metrics["sweep.profiles"] == 2
        assert metrics["video.loads"] == 2
        assert sorted(key[0] for key in clips) == ["desktop", "holi"]


class TestWarmCache:
    def test_warm_run_is_identical_and_encoder_free(self, tmp_path,
                                                    serial_records):
        cache = ResultCache(tmp_path / "sweeps")
        SweepRunner(SCALE, jobs=1, cache=cache).crf_refs_sweep()  # cold fill

        warm_runner = SweepRunner(SCALE, jobs=1, cache=cache)  # empty memo
        with telemetry_session() as tel:
            warm_records = warm_runner.crf_refs_sweep()
            metrics = tel.metrics.as_dict()
        # Zero encoder calls: no profiles ran, no kernel-call counters.
        assert "sweep.profiles" not in metrics
        assert not any(k.startswith("encoder.kernel_calls.") for k in metrics)
        assert metrics["sweep.disk_hits"] == 6
        # And the cached payloads are exactly the fresh ones.
        for fresh, warm in zip(serial_records, warm_records):
            assert record_to_payload(fresh) == record_to_payload(warm)

    def test_corrupt_entry_recomputes(self, tmp_path, serial_records):
        cache = ResultCache(tmp_path / "sweeps")
        SweepRunner(SCALE, jobs=1, cache=cache).crf_refs_sweep()
        # Truncate every entry; the engine must recompute, not crash.
        for path in cache._entry_paths():
            path.write_text(path.read_text()[:25])
        with telemetry_session() as tel:
            records = SweepRunner(SCALE, jobs=1, cache=cache).crf_refs_sweep()
            metrics = tel.metrics.as_dict()
        assert metrics["sweep.profiles"] == 6
        for fresh, recomputed in zip(serial_records, records):
            assert record_to_payload(fresh) == record_to_payload(recomputed)


class TestCliWarmCache:
    def test_second_tab1_invocation_runs_no_measurements(self, tmp_path,
                                                         capsys):
        cache_dir = str(tmp_path / "cache")
        cold_out = tmp_path / "cold"
        warm_out = tmp_path / "warm"
        assert main(["tab1", "--cache-dir", cache_dir,
                     "--telemetry", str(cold_out)]) == 0
        assert main(["tab1", "--cache-dir", cache_dir,
                     "--telemetry", str(warm_out)]) == 0
        cold = load_run(cold_out / "run.json")
        warm = load_run(warm_out / "run.json")
        assert "tab1.entropy_cache_hits" not in cold["metrics"]
        assert warm["metrics"]["tab1.entropy_cache_hits"] == 15
        assert not any(
            k.startswith("encoder.kernel_calls.") for k in warm["metrics"]
        )

    def test_no_cache_flag_disables_persistence(self, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        assert main(["tab1", "--no-cache"]) == 0
        assert not (tmp_path / "env-cache").exists()
