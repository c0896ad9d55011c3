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
  back with the result, and the parent folds it in via
  :func:`repro.obs.session.merge_worker_state`: counters and histograms
  in ``run.json`` aggregate the whole fan-out exactly as a serial run
  would, and worker spans are re-parented under the ``parallel.fan_out``
  span so the Chrome-trace export shows one cross-process flame graph.

A third invariant was added with the resilience layer:

- **Fault tolerance.** Per-task work runs under the engine's
  :class:`~repro.resilience.retry.RetryPolicy`: retryable exceptions
  (injected faults, transient I/O) are re-executed up to the attempt
  budget, and a died worker process (``BrokenProcessPool``) triggers a
  pool restart that resubmits only the unfinished tasks.
  :func:`run_tasks` reports per-task :class:`TaskOutcome`\\ s so callers
  can degrade to partial results instead of aborting a whole campaign;
  :func:`fan_out` keeps the historical all-or-nothing contract on top.

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
from dataclasses import dataclass
from pathlib import Path
from typing import TypeVar

from repro.experiments.cache import ResultCache
from repro.obs import session as obs
from repro.obs.spans import TraceContext
from repro.resilience import faults
from repro.resilience.retry import RetryPolicy, call_with_retry, retry_policy

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
    ``attempts`` counts every execution, including the successful one.
    """

    index: int
    result: object | None
    error: BaseException | None
    attempts: int

    @property
    def ok(self) -> bool:
        return self.error is None


def _run_isolated(
    compute: Callable[[_P], _R], index: int, payload: _P,
    ctx: dict[str, object] | None = None,
) -> tuple[_R, dict[str, object]]:
    """Worker-side wrapper: run ``compute`` under a fresh telemetry
    session — threaded onto the parent's trace via ``ctx`` (a serialized
    :class:`~repro.obs.spans.TraceContext`) — and return (result,
    exported session state: metrics + finished spans).

    Fault call-indices reset per task (activation caps persist for the
    process) so an installed plan activates at deterministic points no
    matter how the pool schedules payloads onto worker processes; the
    ``worker.task`` site (detail: the payload index) is where ``kill``
    plans crash a worker mid-sweep.
    """
    obs.reset_for_subprocess()  # drop any session inherited across fork
    faults.reset_counters(activations=False)
    trace = TraceContext.from_dict(ctx) if ctx is not None else None
    with obs.telemetry_session(trace) as tel:
        with obs.span("worker.task", task=index):
            faults.fault_point("worker.task", detail=str(index))
            result = compute(payload)
    return result, tel.export_state()


def run_tasks(
    compute: Callable[[_P], _R],
    payloads: Sequence[_P],
    *,
    jobs: int | None = None,
    label: str = "sweep",
    policy: RetryPolicy | None = None,
    on_result: Callable[[int, _R], None] | None = None,
    sleeper: Callable[[float], None] = time.sleep,
) -> list[TaskOutcome]:
    """Run ``compute`` over ``payloads`` with retries and crash recovery,
    returning one :class:`TaskOutcome` per payload, in payload order.

    Serial (``jobs`` <= 1 or a single payload) runs in-process, retrying
    each task under ``policy`` (default: the engine's configured retry
    policy). Parallel runs shard across a process pool with at most
    ``jobs`` tasks in flight; a retryable worker exception resubmits the
    task to the same pool, while a died worker (``BrokenProcessPool``)
    charges every in-flight task an attempt (the culprit is
    indistinguishable from its collateral neighbors) and retries each of
    them *isolated* in a single-task pool before the main pool restarts.
    A deterministic crasher therefore converges to a failed outcome
    after ``max_attempts`` without ever exhausting an innocent
    neighbor's budget.

    ``on_result(index, result)`` streams successes back as they complete
    (out of order under parallelism); the sweep runner uses it to
    store each cell in the result cache as it finishes, so progress
    survives even a killed parent.
    """
    payloads = list(payloads)
    pol = policy if policy is not None else retry_policy()
    n_jobs = default_jobs() if jobs is None else max(int(jobs), 1)
    outcomes: list[TaskOutcome | None] = [None] * len(payloads)
    if not payloads:
        return []

    if n_jobs <= 1 or len(payloads) <= 1:
        for index, payload in enumerate(payloads):
            attempts = 0

            def _attempt(payload: _P = payload) -> _R:
                nonlocal attempts
                attempts += 1
                return compute(payload)

            try:
                result = call_with_retry(
                    _attempt,
                    policy=pol,
                    token=f"{label}:{index}",
                    label=label,
                    sleeper=sleeper,
                )
            except Exception as exc:
                outcomes[index] = TaskOutcome(index, None, exc, attempts)
                continue
            outcomes[index] = TaskOutcome(index, result, None, attempts)
            if on_result is not None:
                on_result(index, result)
        return outcomes  # type: ignore[return-value]

    workers = min(n_jobs, len(payloads))
    obs.inc("parallel.fan_outs")
    obs.inc("parallel.tasks", len(payloads))
    #: payload index -> failed attempts so far.
    pending: dict[int, int] = {i: 0 for i in range(len(payloads))}
    #: Tasks charged an attempt by a pool break. The culprit is
    #: indistinguishable from its collateral neighbors, so each suspect
    #: retries alone in a single-task pool: a repeat crash then burns
    #: only the crasher's own budget, never an innocent's.
    suspects: deque[int] = deque()
    retries = 0
    pool_restarts = 0

    def charge_crash(i: int, exc: BaseException) -> None:
        """One attempt burned by a died worker; retry isolated or give up."""
        nonlocal retries
        attempts = pending[i] + 1
        if attempts >= pol.max_attempts:
            obs.inc("retry.giveups")
            outcomes[i] = TaskOutcome(i, None, exc, attempts)
            del pending[i]
        else:
            pending[i] = attempts
            retries += 1
            obs.inc("retry.retries")
            obs.observe(
                "retry.backoff_seconds",
                pol.backoff_delay(attempts, token=f"{label}:{i}"),
            )
            suspects.append(i)

    def complete(i: int, result: _R, state: dict[str, object]) -> None:
        obs.merge_worker_state(state)
        outcomes[i] = TaskOutcome(i, result, None, pending.pop(i) + 1)
        if on_result is not None:
            on_result(i, result)

    def fail(i: int, exc: BaseException) -> None:
        if pol.is_retryable(exc):
            obs.inc("retry.giveups")
        outcomes[i] = TaskOutcome(i, None, exc, pending.pop(i) + 1)

    with obs.span(
        "parallel.fan_out", label=label, jobs=workers, tasks=len(payloads)
    ) as sp:
        # Captured *inside* the span so worker trees re-parent under it.
        ctx = obs.current_trace_context()
        ctx_dict = ctx.as_dict() if ctx is not None else None
        while pending:
            while suspects:
                i = suspects.popleft()
                if i not in pending:
                    continue
                sleeper(pol.backoff_delay(pending[i], token=f"{label}:{i}"))
                try:
                    with ProcessPoolExecutor(max_workers=1) as solo:
                        result, state = solo.submit(
                            _run_isolated, compute, i, payloads[i], ctx_dict
                        ).result()
                except BrokenExecutor as exc:
                    pool_restarts += 1
                    obs.inc("parallel.pool_restarts")
                    charge_crash(i, exc)
                except Exception as exc:
                    if pol.is_retryable(exc) and pending[i] + 1 < pol.max_attempts:
                        pending[i] += 1
                        retries += 1
                        obs.inc("retry.retries")
                        suspects.append(i)
                    else:
                        fail(i, exc)
                else:
                    complete(i, result, state)
            if not pending:
                break

            to_submit: deque[int] = deque(sorted(pending))
            inflight: dict[object, int] = {}
            broken = False

            with ProcessPoolExecutor(
                max_workers=min(workers, len(pending))
            ) as pool:

                def top_up() -> None:
                    # Bounded in-flight submission: at most `workers`
                    # tasks are lost to attempt-charging when a worker
                    # dies, instead of the whole remaining queue.
                    nonlocal broken
                    while (
                        not broken
                        and to_submit
                        and len(inflight) < workers
                    ):
                        i = to_submit.popleft()
                        try:
                            fut = pool.submit(
                                _run_isolated, compute, i, payloads[i],
                                ctx_dict,
                            )
                        except (BrokenExecutor, RuntimeError):
                            broken = True
                            to_submit.appendleft(i)
                            return
                        inflight[fut] = i

                top_up()
                while inflight:
                    done, _ = wait(
                        set(inflight), return_when=FIRST_COMPLETED
                    )
                    for fut in done:
                        i = inflight.pop(fut)
                        try:
                            result, state = fut.result()  # type: ignore[attr-defined]
                        except BrokenExecutor as exc:
                            broken = True
                            charge_crash(i, exc)
                            continue
                        except Exception as exc:
                            if (
                                pol.is_retryable(exc)
                                and pending[i] + 1 < pol.max_attempts
                            ):
                                pending[i] += 1
                                retries += 1
                                obs.inc("retry.retries")
                                obs.observe(
                                    "retry.backoff_seconds",
                                    pol.backoff_delay(
                                        pending[i], token=f"{label}:{i}"
                                    ),
                                )
                                to_submit.append(i)
                            else:
                                fail(i, exc)
                            continue
                        complete(i, result, state)
                    top_up()

            if broken:
                pool_restarts += 1
                obs.inc("parallel.pool_restarts")
        sp.set(
            retries=retries,
            pool_restarts=pool_restarts,
            failures=sum(1 for o in outcomes if o is not None and not o.ok),
        )
    return outcomes  # type: ignore[return-value]


def fan_out(
    compute: Callable[[_P], _R],
    payloads: Sequence[_P],
    *,
    jobs: int | None = None,
    label: str = "sweep",
) -> list[_R]:
    """Run ``compute`` over ``payloads``, sharded across worker processes.

    Results come back in payload order. With ``jobs`` (or the engine
    default) at 1, or fewer than two payloads, the work runs in the
    current process — same code path, no pool. ``compute`` must be a
    module-level function and payloads/results must be picklable.

    This is the all-or-nothing front door: tasks are retried under the
    engine's retry policy, but the first task that still fails aborts
    the call by re-raising its error. Callers that want partial results
    use :func:`run_tasks`.
    """
    outcomes = run_tasks(compute, payloads, jobs=jobs, label=label)
    for outcome in outcomes:
        if outcome.error is not None:
            raise outcome.error
    return [outcome.result for outcome in outcomes]  # type: ignore[misc]
