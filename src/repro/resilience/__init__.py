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
fault plan (none by default, :func:`~repro.resilience.faults.install_plan`)
and one retry policy (``RetryPolicy()`` by default,
:func:`~repro.resilience.retry.install_policy`), both written by
:meth:`repro.api.settings.Settings.apply` — that is how ``--fault-plan``,
``REPRO_FAULT_PLAN`` and ``REPRO_RETRY_*`` arrive.

Import each name from the submodule that owns it; the package
re-exports nothing.
"""

__all__: list[str] = []
