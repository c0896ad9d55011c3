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

Process-wide configuration mirrors the parallel engine's: the CLI's
``--fault-plan`` flag and the resolved retry policy land in
:func:`configure`, and everything falls back to the ``REPRO_FAULT_PLAN``
/ ``REPRO_RETRY_*`` environment variables.
"""

from __future__ import annotations

from repro.resilience.faults import (
    FaultSpec,
    InjectedFault,
    clear_plan,
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
    "clear_plan",
    "configure",
    "fault_point",
    "format_fault_plan",
    "install_plan",
    "parse_fault_plan",
    "reset",
    "retry_policy",
]

_UNSET = object()

#: Process-wide override; ``None`` means "fall back to the environment".
_retry_override: RetryPolicy | None = None


def configure(*, fault_plan: object = _UNSET, retry: object = _UNSET) -> None:
    """Set process-wide resilience defaults (the CLI flags land here).

    ``fault_plan``: a plan string/spec sequence, ``None`` to fall back to
    ``REPRO_FAULT_PLAN``, or ``False`` to disable injection outright.
    ``retry``: a :class:`RetryPolicy`, or ``None`` for ``REPRO_RETRY_*``.
    Arguments left unset keep their current value.
    """
    global _retry_override
    if fault_plan is not _UNSET:
        if fault_plan is None:
            clear_plan()
        elif fault_plan is False:
            install_plan(None)
        else:
            install_plan(fault_plan)  # type: ignore[arg-type]
    if retry is not _UNSET:
        if retry is not None and not isinstance(retry, RetryPolicy):
            raise TypeError("retry must be a RetryPolicy or None")
        _retry_override = retry


def retry_policy() -> RetryPolicy:
    """The configured policy, else one built from ``REPRO_RETRY_*``."""
    if _retry_override is not None:
        return _retry_override
    return RetryPolicy.from_env()


def reset() -> None:
    """Restore every resilience default (tests)."""
    global _retry_override
    _retry_override = None
    clear_plan()
