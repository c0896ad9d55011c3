"""Integration: the sweep engine under injected chaos.

The fault-tolerance contract (ISSUE 3 acceptance criteria): whatever
combination of worker crashes, encoder exceptions, and cache corruption
a fault plan injects, the sweep's *final* payloads are byte-identical to
a clean run's — failures cost retries, pool restarts, or recomputation,
never results. The resume path is verified by encoder-call counting:
after a worker-kill interrupts a sweep, re-running it against the same
result cache recomputes only the cells the first run could not finish.
"""

from __future__ import annotations

import pytest

from repro.experiments.cache import ResultCache, record_to_payload
from repro.experiments.runner import QUICK, SweepFailure, SweepRunner
from repro.loadgen.driver import LoadtestSpec, run_loadtest
from repro.obs.session import telemetry_session
from repro.resilience.faults import InjectedFault, install_plan
from repro.resilience.retry import RetryPolicy, install_policy
from repro.service.service import ServiceConfig

#: QUICK proxy geometry with a trimmed grid — four cells exercise the
#: parallel, retry, and cache-resume paths as well as 24 would.
SCALE = QUICK.with_updates(
    name="quick-chaos",
    width=48,
    height=32,
    n_frames=4,
    crf_values=(23, 40),
    refs_values=(1, 2),
)

#: Zero-sleep policy so chaos tests retry instantly.
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)


@pytest.fixture(autouse=True)
def _clean_resilience_state():
    """Every test starts with no fault plan and a fast retry policy."""
    install_plan(None)
    install_policy(FAST_RETRY)


@pytest.fixture(scope="module")
def clean_payloads():
    """The chaos-free ground truth, cell by cell."""
    records = SweepRunner(SCALE, jobs=1, cache=False).crf_refs_sweep()
    return [record_to_payload(r) for r in records]


def _payloads(records):
    return [record_to_payload(r) for r in records]


class TestEncoderExceptions:
    def test_transient_compute_fault_is_retried_serial(self, clean_payloads):
        install_plan("sweep.compute,at=1,max=1,raise=InjectedFault")
        with telemetry_session() as tel:
            records = SweepRunner(SCALE, jobs=1, cache=False).crf_refs_sweep()
        metrics = tel.metrics.as_dict()
        assert _payloads(records) == clean_payloads
        assert metrics["retry.retries"] >= 1
        assert metrics["faults.injected.raise"] == 1
        assert "sweep.failed_cells" not in metrics

    def test_transient_worker_fault_is_retried_parallel(self, clean_payloads):
        # ``max=`` caps activations per process (EXPERIMENTS.md's fault-plan
        # grammar), so each of the 2 workers may raise once on task 0; the
        # retry budget of 3 outlasts them, so the sweep converges.
        install_plan("worker.task,match=0,max=1,raise=InjectedFault")
        with telemetry_session() as tel:
            records = SweepRunner(SCALE, jobs=2, cache=False).crf_refs_sweep()
        metrics = tel.metrics.as_dict()
        assert _payloads(records) == clean_payloads
        assert metrics["retry.retries"] >= 1

    def test_fatal_exception_fails_without_retry(self):
        install_plan("sweep.compute,match=crf=40,raise=ValueError")
        with telemetry_session() as tel:
            with pytest.raises(SweepFailure) as excinfo:
                SweepRunner(SCALE, jobs=1, cache=False).crf_refs_sweep()
        failure = excinfo.value
        assert len(failure.failures) == 2  # crf=40 x refs in (1, 2)
        assert all(f.error == "ValueError" for f in failure.failures)
        assert all(f.attempts == 1 for f in failure.failures)  # no retries
        assert tel.metrics.as_dict()["sweep.failed_cells"] == 2


#: The retry-parity plans. The first selects by call index, which every
#: task resets, serial or pooled: each crf=23 cell's first compute fails.
#: The second fails every crf=23 compute. The third selects by call index
#: alone and raises a fatal error, so each cell's first compute fails it.
FIRST_CALL_FAULT = "sweep.compute,match=crf=23,at=1,raise=InjectedFault"
EVERY_CALL_FAULT = "sweep.compute,match=crf=23,raise=InjectedFault"
FIRST_CALL_FATAL = "sweep.compute,at=1,raise=ValueError"


def _sweep_under(plan, jobs):
    """(records or None, SweepFailure or None, telemetry) of one sweep."""
    install_plan(plan)
    records = failure = None
    with telemetry_session() as tel:
        try:
            records = SweepRunner(SCALE, jobs=jobs, cache=False).crf_refs_sweep()
        except SweepFailure as exc:
            failure = exc
    return records, failure, tel


class TestSerialParallelParity:
    """A task retries in the process that runs it, so a pool worker
    handles a raised fault exactly as the serial path does: the same
    outcome, the same attempts, the same counters and the same backoff."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_fault_selected_by_call_index_is_retried_to_identical(
        self, jobs, clean_payloads
    ):
        records, failure, _ = _sweep_under(FIRST_CALL_FAULT, jobs)
        assert failure is None
        assert _payloads(records) == clean_payloads

    def test_a_persistent_fault_fails_alike_with_the_same_metrics(self):
        # A nonzero backoff, so the histogram's sum is compared too.
        install_policy(RetryPolicy(max_attempts=3, base_delay=0.001))
        runs = {jobs: _sweep_under(EVERY_CALL_FAULT, jobs) for jobs in (1, 2)}
        retry_metrics = {}
        for jobs, (records, failure, tel) in runs.items():
            assert records is None and failure is not None
            assert sorted(
                (f.crf, f.refs, f.attempts) for f in failure.failures
            ) == [(23, 1, 3), (23, 2, 3)]
            retry_metrics[jobs] = {
                name: value
                for name, value in tel.metrics.as_dict().items()
                if name.startswith(("retry.", "faults.injected"))
            }
        serial = retry_metrics[1]
        assert serial["faults.injected.raise"] == 6
        assert serial["retry.retries.crf_refs"] == 4
        assert serial["retry.giveups.crf_refs"] == 2
        assert serial["retry.backoff_seconds"]["count"] == 4
        assert retry_metrics[2] == serial
        # Failed tasks ship their telemetry back too: one worker.task
        # span per cell.
        pooled = runs[2][2]
        assert sum(s.name == "worker.task" for s in pooled.spans.finished) == 4

    def test_a_call_index_counts_per_task_in_both_modes(self):
        """``at=1`` without ``match=`` is each task's first call, so the
        serial path fails every cell, as the pool does (the serial path
        used to count across tasks and fail only the first cell)."""
        failed = {}
        for jobs in (1, 2):
            records, failure, _ = _sweep_under(FIRST_CALL_FATAL, jobs)
            assert records is None and failure is not None
            failed[jobs] = sorted(
                (f.crf, f.refs, f.attempts) for f in failure.failures
            )
        assert failed[1] == [(23, 1, 1), (23, 2, 1), (40, 1, 1), (40, 2, 1)]
        assert failed[2] == failed[1]

    @pytest.mark.parametrize("jobs, injected", [(1, {1}), (2, {1, 2})])
    def test_an_activation_cap_counts_per_process(
        self, jobs, injected, clean_payloads
    ):
        """``max=1`` is one activation per process: the serial sweep
        injects once, a pool of 2 at most once in each worker. Each fault
        is retried, so every cell completes either way."""
        records, failure, tel = _sweep_under(
            "sweep.compute,max=1,raise=InjectedFault", jobs
        )
        assert failure is None
        assert _payloads(records) == clean_payloads
        assert tel.metrics.as_dict()["faults.injected.raise"] in injected

    def test_a_site_called_between_tasks_counts_across_the_sweep(
        self, tmp_path
    ):
        """The sweep stores each cell between tasks; ``cache.write``'s
        index runs across the sweep in both modes, so ``at=2`` fails the
        second store once, serial or pooled."""
        for jobs in (1, 2):
            install_plan("cache.write,at=2,raise=OSError")
            cache = ResultCache(tmp_path / f"sweeps-{jobs}")
            with telemetry_session() as tel:
                SweepRunner(SCALE, jobs=jobs, cache=cache).crf_refs_sweep()
            metrics = tel.metrics.as_dict()
            assert metrics["faults.injected.raise"] == 1, jobs
            assert metrics["retry.retries.cache.write"] == 1, jobs
            assert cache.stats().entries == 4


class TestWorkerCrashes:
    def test_killed_worker_interrupt_then_resume_is_identical(
        self, tmp_path, clean_payloads
    ):
        """The acceptance-criteria scenario: a worker crash at 50% of the
        sweep, then the same sweep against the same result cache —
        byte-identical results, recomputing only the incomplete cell
        (verified by encoder-call counting)."""
        cache = ResultCache(tmp_path / "sweeps")
        install_plan("worker.task,match=2,kill")
        with telemetry_session() as tel:
            with pytest.raises(SweepFailure) as excinfo:
                SweepRunner(SCALE, jobs=2, cache=cache).crf_refs_sweep()
        interrupted = tel.metrics.as_dict()
        failure = excinfo.value
        assert len(failure.failures) == 1
        assert failure.completed == 3
        assert interrupted["parallel.pool_restarts"] >= 1
        # A crash give-up counts under the sweep's label, as a raised
        # fault's give-up does.
        assert interrupted["retry.giveups.crf_refs"] == 1
        # The cache holds exactly the completed cells, and nothing else.
        assert cache.stats().entries == 3

        install_plan(None)  # chaos off
        with telemetry_session() as tel2:
            records = SweepRunner(SCALE, jobs=2, cache=cache).crf_refs_sweep()
        rerun = tel2.metrics.as_dict()
        assert _payloads(records) == clean_payloads
        # Encoder-call counting: only the killed cell recomputed.
        assert rerun["sweep.disk_hits"] == 3
        assert rerun["sweep.profiles"] == 1
        assert cache.stats().entries == 4

    def test_collateral_tasks_survive_a_crashing_neighbor(
        self, clean_payloads
    ):
        """Tasks in flight beside the killed worker are charged an
        attempt but retried; every other cell still completes."""
        install_plan("worker.task,match=1,kill")
        with pytest.raises(SweepFailure) as excinfo:
            SweepRunner(SCALE, jobs=2, cache=False).crf_refs_sweep()
        failure = excinfo.value
        assert len(failure.failures) == 1
        assert failure.completed == 3
        assert failure.failures[0].attempts == FAST_RETRY.max_attempts


class TestPartialSweepCache:
    def test_cache_holds_exactly_the_completed_cells(self, tmp_path, capsys):
        """`repro cache stats` regression: after a sweep with one
        permanently failing cell, nothing but the completed cells'
        entries lives under the cache root (the checkpoint manifest used
        to be counted as one more entry), and `repro cache clear` leaves
        the root empty."""
        from repro.cli import main

        root = tmp_path / "sweeps"
        install_plan(
            "sweep.compute,match=crf=40:refs=2,raise=ValueError"
        )
        with pytest.raises(SweepFailure) as excinfo:
            SweepRunner(SCALE, jobs=1, cache=ResultCache(root)).crf_refs_sweep()
        assert excinfo.value.completed == 3
        assert ResultCache(root).stats().entries == 3

        assert main(["cache", "clear", "--cache-dir", str(root)]) == 0
        assert "removed 3 cache entries" in capsys.readouterr().out
        assert list(root.iterdir()) == []


class TestCacheCorruption:
    def test_corrupt_entry_is_quarantined_and_recomputed(
        self, tmp_path, clean_payloads
    ):
        cache = ResultCache(tmp_path / "sweeps")
        SweepRunner(SCALE, jobs=1, cache=cache).crf_refs_sweep()  # cold fill
        victim = cache._entry_paths()[0]
        victim.write_text("{not json", encoding="utf-8")

        with telemetry_session() as tel:
            records = SweepRunner(SCALE, jobs=1, cache=cache).crf_refs_sweep()
        metrics = tel.metrics.as_dict()
        assert _payloads(records) == clean_payloads
        assert metrics["sweep.profiles"] == 1    # only the damaged cell
        assert metrics["sweep.disk_hits"] == 3
        assert metrics["cache.quarantined"] == 1
        assert cache.stats().corrupt == 1
        assert victim.with_suffix(".corrupt").exists()

    def test_injected_read_faults_degrade_to_misses(
        self, tmp_path, clean_payloads
    ):
        cache = ResultCache(tmp_path / "sweeps")
        SweepRunner(SCALE, jobs=1, cache=cache).crf_refs_sweep()  # cold fill
        install_plan("cache.read,raise=OSError")
        with telemetry_session() as tel:
            records = SweepRunner(SCALE, jobs=1, cache=cache).crf_refs_sweep()
        metrics = tel.metrics.as_dict()
        assert _payloads(records) == clean_payloads
        assert metrics["cache.read_giveups"] == 4
        assert metrics["sweep.profiles"] == 4  # every read failed -> recompute

    def test_injected_write_faults_do_not_fail_the_sweep(
        self, tmp_path, clean_payloads
    ):
        cache = ResultCache(tmp_path / "sweeps")
        install_plan("cache.write,raise=OSError")
        with telemetry_session() as tel:
            records = SweepRunner(SCALE, jobs=1, cache=cache).crf_refs_sweep()
        metrics = tel.metrics.as_dict()
        assert _payloads(records) == clean_payloads
        assert metrics["sweep.disk_write_failures"] == 4
        assert cache.stats().entries == 0  # nothing persisted, nothing broken

    def test_transient_read_fault_retries_then_hits(
        self, tmp_path, clean_payloads
    ):
        cache = ResultCache(tmp_path / "sweeps")
        SweepRunner(SCALE, jobs=1, cache=cache).crf_refs_sweep()  # cold fill
        install_plan("cache.read,at=1,max=1,raise=OSError")
        with telemetry_session() as tel:
            records = SweepRunner(SCALE, jobs=1, cache=cache).crf_refs_sweep()
        metrics = tel.metrics.as_dict()
        assert _payloads(records) == clean_payloads
        assert metrics["retry.retries.cache.read"] == 1
        assert "sweep.profiles" not in metrics  # all four still disk hits
        assert metrics["sweep.disk_hits"] == 4


class TestLoadtestUnderChaos:
    """ISSUE 7 satellite: the open-loop load generator's shed-load
    accounting stays *closed* under injected worker crashes — every
    offered request is either completed, shed, or failed, and the
    crash retries surface as a ``retry_overhead`` latency series."""

    def test_accounting_closes_under_worker_crashes(self):
        # Crash the 3rd and 7th worker executions: two of the four
        # workers get isolated mid-run, halving capacity while the
        # open-loop driver keeps offering at 20 req/s.
        install_plan("service.worker,at=3|7,raise=RuntimeError")
        spec = LoadtestSpec(
            arrivals="poisson", rates=(20.0,), duration_s=10.0, seed=7
        )
        config = ServiceConfig(
            width=48, height=32, n_frames=4, queue_capacity=8
        )
        with telemetry_session() as tel:
            report = run_loadtest(spec, config)
        metrics = tel.metrics.as_dict()
        (leg,) = report.legs

        assert metrics["service.worker_crashes"] == 2
        assert leg.shed > 0  # overload sheds even before the crashes
        # The contract: nothing vanishes. offered = admitted + shed and
        # every admitted job reaches a terminal state.
        assert leg.offered == leg.completed + leg.shed + leg.failed
        assert metrics["loadtest.offered"] == leg.offered
        assert metrics["loadtest.shed"] == leg.shed
        # Crashed placements charge their wasted attempts to the job:
        # the retry_overhead stage series shows up in the histograms.
        assert any('stage="retry_overhead"' in key for key in metrics)


class TestCombinedChaos:
    def test_kitchen_sink_plan_still_converges_byte_identical(
        self, tmp_path, clean_payloads
    ):
        """Encoder exceptions + cache read faults together: the engine
        absorbs all of it and the results do not change."""
        cache = ResultCache(tmp_path / "sweeps")
        install_plan(
            "sweep.compute,at=1,max=1,raise=InjectedFault;"
            "cache.read,at=1,max=1,raise=OSError"
        )
        records = SweepRunner(SCALE, jobs=1, cache=cache).crf_refs_sweep()
        assert _payloads(records) == clean_payloads

    def test_stall_faults_only_cost_time(self, clean_payloads):
        install_plan("sweep.compute,at=1,max=2,stall=0.01")
        with telemetry_session() as tel:
            records = SweepRunner(SCALE, jobs=1, cache=False).crf_refs_sweep()
        assert _payloads(records) == clean_payloads
        assert tel.metrics.as_dict()["faults.injected.stall"] >= 1
