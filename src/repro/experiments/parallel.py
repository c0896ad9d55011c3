"""Process-pool fan-out and process-wide engine configuration.

Every cached experiment's units are embarrassingly parallel — a sweep's
(video, crf, refs, preset) point, Fig 8's video, Fig 9's task: each an
independent, deterministic computation — so the engine shards them
across a :class:`~concurrent.futures.ProcessPoolExecutor`. Three
invariants make the fan-out safe:

- **Determinism.** Workers run *the same* compute function the serial
  path runs, on the same payloads, and outcomes come back in payload
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
- **Fault tolerance.** A task retries in the process that runs it, the
  same way under every ``--jobs``, and a died worker costs each
  in-flight task one attempt (see :func:`run_tasks`). A task that still
  fails comes back as a failed :class:`TaskOutcome`, never raised;
  :func:`repro.experiments.runner.compute_misses` reports it as a
  partial result.

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
    Never raises; a failure is an outcome with the last error. The task
    counts its fault-point calls from zero
    (:func:`~repro.resilience.faults.task_counters`), serial or pooled,
    so a fault plan selects the same calls under every ``jobs``.
    """
    attempts = 0

    def attempt() -> _R:
        nonlocal attempts
        attempts += 1
        return compute(payload)

    try:
        with faults.task_counters():
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

    The ``worker.task`` site (detail: the payload index), where ``kill``
    plans crash a worker mid-sweep, opens every attempt.
    """
    obs.reset_for_subprocess()  # drop any session inherited across fork

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
    (out of order under parallelism); the experiments' miss path uses it
    to store each unit in the result cache as it finishes, so progress
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

