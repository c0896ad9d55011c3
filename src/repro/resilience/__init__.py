"""Fault tolerance for the sweep engine: injection, retry, checkpoint.

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
  backoff, deterministic jitter, and retryable-vs-fatal classification;
- :mod:`repro.resilience.checkpoint` — sweep manifests persisted next
  to the result cache so ``repro fig3 --resume`` recomputes only
  missing cells.

Process-wide configuration mirrors the parallel engine's: the CLI's
``--fault-plan`` / ``--resume`` / ``--checkpoint-dir`` flags land in
:func:`configure`, and everything falls back to the ``REPRO_FAULT_PLAN``
/ ``REPRO_RESUME`` / ``REPRO_CHECKPOINT_DIR`` / ``REPRO_RETRY_*``
environment variables.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro._util import truthy
from repro.resilience.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    SweepCheckpoint,
    sweep_id,
)
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
    "CHECKPOINT_SCHEMA_VERSION",
    "FaultSpec",
    "InjectedFault",
    "RetryPolicy",
    "SweepCheckpoint",
    "call_with_retry",
    "checkpoint_root",
    "clear_plan",
    "configure",
    "fault_point",
    "format_fault_plan",
    "install_plan",
    "parse_fault_plan",
    "reset",
    "resume_enabled",
    "retry_policy",
    "sweep_id",
]

_RESUME_ENV = "REPRO_RESUME"
_CHECKPOINT_ENV = "REPRO_CHECKPOINT_DIR"

_UNSET = object()

#: Process-wide overrides; ``None`` means "fall back to the environment".
_retry_override: RetryPolicy | None = None
_resume_override: bool | None = None
_checkpoint_override: Path | None = None


def configure(
    *,
    fault_plan: object = _UNSET,
    retry: object = _UNSET,
    resume: object = _UNSET,
    checkpoint_dir: object = _UNSET,
) -> None:
    """Set process-wide resilience defaults (the CLI flags land here).

    ``fault_plan``: a plan string/spec sequence, ``None`` to fall back to
    ``REPRO_FAULT_PLAN``, or ``False`` to disable injection outright.
    ``retry``: a :class:`RetryPolicy`, or ``None`` for ``REPRO_RETRY_*``.
    ``resume``: ``True``/``False``, or ``None`` for ``REPRO_RESUME``.
    ``checkpoint_dir``: a directory, or ``None`` to fall back to
    ``REPRO_CHECKPOINT_DIR`` (else the cache's ``checkpoints/`` subdir).
    Arguments left unset keep their current value.
    """
    global _retry_override, _resume_override, _checkpoint_override
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
    if resume is not _UNSET:
        _resume_override = None if resume is None else bool(resume)
    if checkpoint_dir is not _UNSET:
        _checkpoint_override = (
            None if checkpoint_dir is None else Path(checkpoint_dir)  # type: ignore[arg-type]
        )


def retry_policy() -> RetryPolicy:
    """The configured policy, else one built from ``REPRO_RETRY_*``."""
    if _retry_override is not None:
        return _retry_override
    return RetryPolicy.from_env()


def resume_enabled() -> bool:
    """Whether sweeps should restore completed cells from checkpoint
    manifests (``--resume``, else ``REPRO_RESUME``)."""
    if _resume_override is not None:
        return _resume_override
    return truthy(os.environ.get(_RESUME_ENV, ""))


def checkpoint_root() -> Path | None:
    """The explicitly configured checkpoint directory, else
    ``REPRO_CHECKPOINT_DIR``, else ``None`` (the runner then checkpoints
    under the persistent cache's ``checkpoints/`` subdirectory, or not
    at all when caching is off)."""
    if _checkpoint_override is not None:
        return _checkpoint_override
    env = os.environ.get(_CHECKPOINT_ENV, "").strip()
    return Path(env) if env else None


def reset() -> None:
    """Restore every resilience default (tests)."""
    global _retry_override, _resume_override, _checkpoint_override
    _retry_override = None
    _resume_override = None
    _checkpoint_override = None
    clear_plan()
