"""Process-pool fan-out and process-wide engine configuration.

The sweep grids are embarrassingly parallel — every (video, crf, refs,
preset) point is an independent, deterministic computation — so the
engine shards them across a :class:`~concurrent.futures.ProcessPoolExecutor`.
Two invariants make the fan-out safe:

- **Determinism.** Workers run *the same* compute function the serial
  path runs, on the same payloads, and ``Executor.map`` preserves input
  order — so a parallel sweep returns bit-identical records in the same
  order as ``--jobs 1`` (asserted by
  ``tests/integration/test_parallel_determinism.py``).
- **Telemetry merge.** Each worker opens its own telemetry session
  *under the parent's trace context* (propagated alongside the payload),
  ships its full exported state — metrics registry *and* span tree —
  back with the outcome, failed or not, and the parent folds it in via
  :func:`repro.obs.session.merge_worker_state`: counters and histograms
  in ``run.json`` aggregate the whole fan-out exactly as a serial run
  would, and worker spans are re-parented under the ``parallel.fan_out``
  span so the Chrome-trace export shows one cross-process flame graph.

A third invariant was added with the resilience layer:

- **Fault tolerance.** A task retries in the process that runs it:
  serial or pooled, it is one :func:`~repro.resilience.retry.call_with_retry`
  around ``compute(payload)`` under the installed
  :class:`~repro.resilience.retry.RetryPolicy`, so retryable exceptions
  (injected faults, transient I/O) are retried, counted and backed off
  the same way under every ``--jobs``. The parent handles only a died
  worker (``BrokenProcessPool``): every in-flight task is charged one
  attempt and re-runs alone in a single-task pool with the rest of its
  budget. :func:`run_tasks` reports per-task :class:`TaskOutcome`\\ s so
  callers can degrade to partial results instead of aborting a whole
  campaign; :func:`fan_out` keeps the historical all-or-nothing contract
  on top.

The process-wide worker count and result cache are two plain values,
serial and uncached until :func:`configure` installs others;
:meth:`repro.api.Settings.apply` is its one caller, which is how
``--jobs`` / ``--cache-dir`` and ``REPRO_JOBS`` / ``REPRO_CACHE_DIR``
arrive. Forked workers inherit them as module state.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Callable, Sequence
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, ProcessPoolExecutor, wait
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TypeVar

from repro.experiments.cache import ResultCache
from repro.obs import session as obs
from repro.obs.spans import TraceContext
from repro.resilience import faults
from repro.resilience.retry import (
    RetryPolicy, call_with_retry, charge_failure, retry_policy,
)

__all__ = [
    "TaskOutcome",
    "configure",
    "default_cache",
    "default_jobs",
    "fan_out",
    "run_tasks",
]

#: The installed engine configuration (``configure``).
_jobs = 1
_cache: ResultCache | None = None

_P = TypeVar("_P")
_R = TypeVar("_R")


def configure(*, jobs: int, cache_dir: Path | None) -> None:
    """Install the process-wide worker count (>= 1) and the persistent
    result cache's directory (``None``: no persistent cache)."""
    global _jobs, _cache
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    _jobs = jobs
    _cache = None if cache_dir is None else ResultCache(cache_dir)


def default_jobs() -> int:
    """The installed worker count."""
    return _jobs


def default_cache() -> ResultCache | None:
    """The installed result cache, or ``None`` (persistent caching off)."""
    return _cache


@dataclass
class TaskOutcome:
    """One task's terminal state after retries.

    ``result`` is meaningful only when ``error`` is ``None``;
    ``attempts`` counts executions, the last included (see
    :func:`run_tasks` for a pooled task).
    """

    index: int
    result: object | None
    error: BaseException | None
    attempts: int

    @property
    def ok(self) -> bool:
        return self.error is None


def _run_task(
    compute: Callable[[_P], _R], index: int, payload: _P,
    policy: RetryPolicy, label: str,
) -> TaskOutcome:
    """One task to its terminal state: ``compute(payload)`` retried in
    this process by :func:`~repro.resilience.retry.call_with_retry`.
    Never raises; a failure is an outcome with the last error."""
    attempts = 0

    def attempt() -> _R:
        nonlocal attempts
        attempts += 1
        return compute(payload)

    try:
        result = call_with_retry(
            attempt, policy=policy, token=f"{label}:{index}", label=label
        )
    except Exception as exc:
        return TaskOutcome(index, None, exc, attempts)
    return TaskOutcome(index, result, None, attempts)


def _run_isolated(
    compute: Callable[[_P], _R], index: int, payload: _P,
    policy: RetryPolicy, label: str, ctx: dict[str, object] | None,
) -> tuple[TaskOutcome, dict[str, object]]:
    """Worker side: :func:`_run_task` under a fresh telemetry session —
    threaded onto the parent's trace via ``ctx`` (a serialized
    :class:`~repro.obs.spans.TraceContext`) — returning (outcome,
    exported session state: metrics + finished spans), whether the task
    succeeded or not.

    Fault call-indices reset per task (activation caps persist for the
    process) so an installed plan activates at deterministic points no
    matter how the pool schedules payloads onto worker processes. The
    ``worker.task`` site (detail: the payload index), where ``kill``
    plans crash a worker mid-sweep, opens every attempt.
    """
    obs.reset_for_subprocess()  # drop any session inherited across fork
    faults.reset_counters(activations=False)

    def task(p: _P) -> _R:
        faults.fault_point("worker.task", detail=str(index))
        return compute(p)

    trace = TraceContext.from_dict(ctx) if ctx is not None else None
    with obs.telemetry_session(trace) as tel:
        with obs.span("worker.task", task=index):
            outcome = _run_task(task, index, payload, policy, label)
    return outcome, tel.export_state()


def run_tasks(
    compute: Callable[[_P], _R],
    payloads: Sequence[_P],
    *,
    jobs: int | None = None,
    label: str = "sweep",
    on_result: Callable[[int, _R], None] | None = None,
) -> list[TaskOutcome]:
    """Run ``compute`` over ``payloads`` with retries and crash recovery,
    returning one :class:`TaskOutcome` per payload, in payload order.

    Every task is one :func:`_run_task` call, which retries the task in
    the process that runs it under the installed retry policy: in-process
    when serial (``jobs`` <= 1 or a single payload), in a pool worker
    otherwise, with at most ``jobs`` tasks in flight. The parent handles
    only what a worker cannot: a died worker (``BrokenProcessPool``)
    charges every in-flight task one attempt (the culprit is
    indistinguishable from its collateral neighbors), counted, backed
    off and given up exactly as ``call_with_retry`` does; each charged
    task then re-runs alone in a single-task pool with the rest of its
    budget. A deterministic crasher therefore converges to a failed
    outcome after ``max_attempts`` without ever exhausting an innocent
    neighbor's budget. A result that cannot come back from the worker
    (one that cannot be pickled, say) fails its task, charged one attempt.

    ``attempts`` is the attempts made by the submission that returned
    plus the crashes charged. Attempts made inside a worker that then
    died are not counted, just as a crashed service placement counts as
    one placement.

    ``on_result(index, result)`` streams successes back as they complete
    (out of order under parallelism); the sweep runner uses it to
    store each cell in the result cache as it finishes, so progress
    survives even a killed parent.
    """
    payloads = list(payloads)
    pol = retry_policy()
    n_jobs = default_jobs() if jobs is None else max(int(jobs), 1)
    outcomes: list[TaskOutcome | None] = [None] * len(payloads)

    def finish(outcome: TaskOutcome) -> None:
        outcomes[outcome.index] = outcome
        if outcome.ok and on_result is not None:
            on_result(outcome.index, outcome.result)  # type: ignore[arg-type]

    if n_jobs <= 1 or len(payloads) <= 1:
        for index, payload in enumerate(payloads):
            finish(_run_task(compute, index, payload, pol, label))
        return outcomes  # type: ignore[return-value]

    workers = min(n_jobs, len(payloads))
    obs.inc("parallel.fan_outs")
    obs.inc("parallel.tasks", len(payloads))
    #: Unfinished task index -> attempts charged to it by died workers.
    charged: dict[int, int] = dict.fromkeys(range(len(payloads)), 0)
    #: Charged tasks, each to re-run alone: a repeat crash then burns
    #: only the crasher's own budget, never an innocent's.
    suspects: deque[int] = deque()
    pool_restarts = 0

    def charge_crash(i: int, exc: BaseException) -> None:
        attempts = charged[i] + 1
        delay = charge_failure(pol, attempts, token=f"{label}:{i}", label=label)
        if delay is None:
            del charged[i]
            finish(TaskOutcome(i, None, exc, attempts))
        else:
            charged[i] = attempts
            time.sleep(delay)
            suspects.append(i)

    with obs.span(
        "parallel.fan_out", label=label, jobs=workers, tasks=len(payloads)
    ) as sp:
        # Captured *inside* the span so worker trees re-parent under it.
        ctx = obs.current_trace_context()
        ctx_dict = ctx.as_dict() if ctx is not None else None
        while charged:
            # One pool loop: a suspect runs alone, in a pool of width 1.
            to_submit = deque([suspects.popleft()] if suspects else sorted(charged))
            inflight: dict[object, int] = {}
            broken = False
            with ProcessPoolExecutor(max_workers=min(workers, len(to_submit))) as pool:

                def top_up() -> None:
                    # Bounded in-flight submission: at most `workers`
                    # tasks are charged an attempt when a worker dies,
                    # instead of the whole remaining queue.
                    nonlocal broken
                    while not broken and to_submit and len(inflight) < workers:
                        i = to_submit.popleft()
                        budget = replace(
                            pol, max_attempts=pol.max_attempts - charged[i]
                        )
                        try:
                            fut = pool.submit(
                                _run_isolated, compute, i, payloads[i],
                                budget, label, ctx_dict,
                            )
                        except (BrokenExecutor, RuntimeError):
                            broken = True
                            return
                        inflight[fut] = i

                top_up()
                while inflight:
                    done, _ = wait(set(inflight), return_when=FIRST_COMPLETED)
                    for fut in done:
                        i = inflight.pop(fut)
                        try:
                            outcome, state = fut.result()  # type: ignore[attr-defined]
                        except BrokenExecutor as exc:
                            broken = True
                            charge_crash(i, exc)
                            continue
                        except Exception as exc:
                            outcome = TaskOutcome(i, None, exc, 1)
                        else:
                            obs.merge_worker_state(state)
                        outcome.attempts += charged.pop(i)
                        finish(outcome)
                    top_up()
            if broken:
                pool_restarts += 1
                obs.inc("parallel.pool_restarts")
        sp.set(
            retries=sum(o.attempts - 1 for o in outcomes),  # type: ignore[union-attr]
            pool_restarts=pool_restarts,
            failures=sum(1 for o in outcomes if not o.ok),  # type: ignore[union-attr]
        )
    return outcomes  # type: ignore[return-value]


def fan_out(
    compute: Callable[[_P], _R],
    payloads: Sequence[_P],
    *,
    label: str = "sweep",
) -> list[_R]:
    """Run ``compute`` over ``payloads``, sharded across the engine's
    worker processes.

    Results come back in payload order. With the engine's worker count
    at 1, or fewer than two payloads, the work runs in the current
    process — same code path, no pool. ``compute`` must be a
    module-level function and payloads/results must be picklable.

    This is the all-or-nothing front door: tasks are retried under the
    engine's retry policy, but the first task that still fails aborts
    the call by re-raising its error. Callers that want partial results
    use :func:`run_tasks`.
    """
    outcomes = run_tasks(compute, payloads, label=label)
    for outcome in outcomes:
        if outcome.error is not None:
            raise outcome.error
    return [outcome.result for outcome in outcomes]  # type: ignore[misc]
