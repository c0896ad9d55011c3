"""Fault tolerance for the sweep engine: injection and retry.

The paper's characterization is an 816-cell sweep plus per-preset and
per-video campaigns — long-running fan-out workloads that production
transcoding farms must survive partial failure on. This package is the
resilience layer threaded through
:mod:`repro.experiments.parallel` / :mod:`~repro.experiments.cache` /
:mod:`~repro.experiments.runner`:

- :mod:`repro.resilience.faults` — deterministic, seedable fault
  injection (``--fault-plan`` / ``REPRO_FAULT_PLAN``) so failures are
  reproducible in tests and demos;
- :mod:`repro.resilience.retry` — retry policies with exponential
  backoff, deterministic jitter, and retryable-vs-fatal classification.

There is no separate checkpoint: a finished sweep cell is persisted once,
in the result cache (:mod:`repro.experiments.cache`), the moment it
completes, so an interrupted sweep is resumed by re-running the same
command with the same ``--cache-dir``.

Process-wide configuration mirrors the parallel engine's: one installed
fault plan (none by default) and one retry policy (``RetryPolicy()`` by
default), both written by :func:`configure`, which
:meth:`repro.api.Settings.apply` calls — that is how ``--fault-plan``,
``REPRO_FAULT_PLAN`` and ``REPRO_RETRY_*`` arrive.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.resilience.faults import (
    FaultSpec,
    InjectedFault,
    fault_point,
    format_fault_plan,
    install_plan,
    parse_fault_plan,
)
from repro.resilience.retry import RetryPolicy, call_with_retry

__all__ = [
    "FaultSpec",
    "InjectedFault",
    "RetryPolicy",
    "call_with_retry",
    "configure",
    "fault_point",
    "format_fault_plan",
    "install_plan",
    "parse_fault_plan",
    "retry_policy",
]

#: The installed retry policy (``configure``).
_retry = RetryPolicy()


def configure(
    *, fault_plan: str | Sequence[FaultSpec] | None, retry: RetryPolicy
) -> None:
    """Install the process-wide fault plan (``None``: no injection) and
    retry policy."""
    global _retry
    if not isinstance(retry, RetryPolicy):
        raise TypeError("retry must be a RetryPolicy")
    install_plan(fault_plan)
    _retry = retry


def retry_policy() -> RetryPolicy:
    """The installed retry policy."""
    return _retry
