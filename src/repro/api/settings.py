"""One resolved configuration record for every ``REPRO_*`` knob.

Historically each subsystem read its own environment variables at its
own time (``REPRO_JOBS`` in the parallel engine, ``REPRO_CACHE_DIR`` in
the cache, ``REPRO_KERNELS`` in the codec dispatch, ``REPRO_RETRY_*`` /
``REPRO_FAULT_PLAN`` / ``REPRO_RESUME`` / ``REPRO_CHECKPOINT_DIR`` in
the resilience layer). :class:`Settings` consolidates them into a single
dataclass with one documented precedence order:

    **CLI flag > environment variable > built-in default**

:meth:`Settings.resolve` implements exactly that order (pass the CLI
flag values; ``None`` means "flag not given"), and :meth:`Settings.apply`
pushes the resolved values into the subsystems, after which nothing
re-reads the environment. CLI subcommands construct a ``Settings`` from
their flags and read only from it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path

from repro.codec import kernels as _kernels
from repro.resilience.retry import RetryPolicy

__all__ = ["ENV_VARS", "Settings"]

#: Environment variable -> Settings field, for documentation and tests.
ENV_VARS = {
    "REPRO_JOBS": "jobs",
    "REPRO_CACHE_DIR": "cache_dir",
    "REPRO_KERNELS": "kernels",
    "REPRO_SHM": "shm",
    "REPRO_FAULT_PLAN": "fault_plan",
    "REPRO_RESUME": "resume",
    "REPRO_CHECKPOINT_DIR": "checkpoint_dir",
    "REPRO_RETRY_*": "retry",
    "REPRO_SLO_SPEC": "slo_spec",
    "REPRO_METRICS_OUT": "metrics_out",
    "REPRO_METRICS_INTERVAL": "metrics_interval",
    "REPRO_LOADTEST_ARRIVALS": "loadtest_arrivals",
    "REPRO_LOADTEST_RATE": "loadtest_rate",
    "REPRO_LOADTEST_DURATION": "loadtest_duration",
    "REPRO_LOADTEST_MIX": "loadtest_mix",
    "REPRO_FLEET": "fleet",
    "REPRO_OBJECTIVE": "objective",
    "REPRO_BENCH_MATRIX": "bench_matrix",
    "REPRO_BENCH_HISTORY": "bench_history",
}

_TRUTHY = ("1", "true", "yes", "on")


def _parse_rates(raw: str) -> tuple[float, ...]:
    """Parse a comma-separated offered-rate list like ``"4,8,16"``."""
    rates = tuple(
        float(clause) for clause in raw.split(",") if clause.strip()
    )
    if not rates:
        raise ValueError(f"no rates in {raw!r}")
    return rates


@dataclass(frozen=True)
class Settings:
    """Every process-wide knob, fully resolved.

    Fields mirror the historical environment variables (see
    :data:`ENV_VARS`); a constructed ``Settings`` is inert until
    :meth:`apply` installs it.
    """

    jobs: int = 1
    cache_dir: Path | None = None
    cache_enabled: bool = True
    kernels: str = _kernels.DEFAULT_BACKEND
    #: Shared-memory frame transport for multi-process sweeps (see
    #: :mod:`repro.experiments.transport`); ``False`` forces the
    #: historical per-worker decode.
    shm: bool = True
    retry: RetryPolicy = RetryPolicy()
    fault_plan: str | None = None
    resume: bool = False
    checkpoint_dir: Path | None = None
    slo_spec: Path | None = None
    metrics_out: Path | None = None
    metrics_interval: float = 30.0
    loadtest_arrivals: str = "poisson"
    loadtest_rate: tuple[float, ...] = (8.0,)
    loadtest_duration: float = 30.0
    loadtest_mix: str = "table3"
    #: Default fleet spec for serve/loadtest (``name[:count][:$rate]``
    #: clauses; ``None`` = the Table IV default fleet).
    fleet: str | None = None
    #: Smart-placement Pareto objective for the service layer.
    objective: str = "throughput"
    #: Declarative benchmark-matrix spec for ``repro bench`` (YAML/JSON;
    #: see :mod:`repro.bench.matrix`). Existence is checked at use time,
    #: not here, so CI can export the variable before the spec lands.
    bench_matrix: Path | None = None
    #: Directory of ``BENCH_*.json`` / ``matrix*.json`` artifacts for
    #: ``repro bench --history`` (see :mod:`repro.bench.history`).
    bench_history: Path | None = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        from repro.loadgen.arrivals import ARRIVAL_KINDS
        from repro.loadgen.mixes import MIXES

        if self.loadtest_arrivals not in ARRIVAL_KINDS:
            raise ValueError(
                f"unknown arrival process {self.loadtest_arrivals!r}; "
                f"choose from {', '.join(ARRIVAL_KINDS)}"
            )
        if self.loadtest_mix not in MIXES:
            raise ValueError(
                f"unknown workload mix {self.loadtest_mix!r}; "
                f"choose from {', '.join(sorted(MIXES))}"
            )
        if not self.loadtest_rate or any(r <= 0 for r in self.loadtest_rate):
            raise ValueError(
                f"loadtest rates must be > 0, got {self.loadtest_rate}"
            )
        if self.loadtest_duration <= 0:
            raise ValueError(
                f"loadtest duration must be > 0 s, "
                f"got {self.loadtest_duration}"
            )
        _kernels.validate_backend(self.kernels)
        if self.fault_plan:
            # Validate eagerly so a bad plan fails at resolve time, not
            # at the first fault point deep inside a sweep.
            from repro.resilience.faults import parse_fault_plan

            parse_fault_plan(self.fault_plan)
        from repro.service.placement import OBJECTIVES

        if self.objective not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {self.objective!r}; "
                f"choose from {', '.join(OBJECTIVES)}"
            )
        if self.fleet is not None:
            # Same eager-validation convention as fault_plan above.
            from repro.service.workers import parse_fleet_spec

            parse_fleet_spec(self.fleet)

    # ------------------------------------------------------------------
    @classmethod
    def from_env(cls) -> "Settings":
        """Built-in defaults overlaid with the environment variables."""
        return cls(**cls.env_overrides())  # type: ignore[arg-type]

    @classmethod
    def env_overrides(cls) -> dict[str, object]:
        """The constructor kwargs the environment actually sets.

        Only fields whose ``REPRO_*`` variable is present (and parseable)
        appear in the mapping, so callers layering their own defaults
        below the environment — the benchmark matrix resolves **spec <
        env < CLI** this way — can tell "env said 1" apart from "env said
        nothing". ``from_env`` is exactly these kwargs over the built-in
        defaults.
        """
        kwargs: dict[str, object] = {}
        jobs_raw = os.environ.get("REPRO_JOBS", "").strip()
        if jobs_raw:
            try:
                kwargs["jobs"] = max(int(jobs_raw), 1)
            except ValueError:
                pass
        cache_raw = os.environ.get("REPRO_CACHE_DIR", "").strip()
        if cache_raw:
            kwargs["cache_dir"] = Path(cache_raw)
        kernels_raw = os.environ.get("REPRO_KERNELS", "").strip().lower()
        if kernels_raw:
            # Reject unknown names eagerly: a typo'd REPRO_KERNELS used
            # to be silently ignored and only surface (if at all) as a
            # mysteriously slow run on the default backend.
            kwargs["kernels"] = _kernels.validate_backend(kernels_raw)
        shm_raw = os.environ.get("REPRO_SHM", "").strip().lower()
        if shm_raw:
            kwargs["shm"] = shm_raw in _TRUTHY
        plan_raw = os.environ.get("REPRO_FAULT_PLAN", "").strip()
        if plan_raw:
            kwargs["fault_plan"] = plan_raw
        resume_raw = os.environ.get("REPRO_RESUME", "").strip().lower()
        if resume_raw:
            kwargs["resume"] = resume_raw in _TRUTHY
        ckpt_raw = os.environ.get("REPRO_CHECKPOINT_DIR", "").strip()
        if ckpt_raw:
            kwargs["checkpoint_dir"] = Path(ckpt_raw)
        slo_raw = os.environ.get("REPRO_SLO_SPEC", "").strip()
        if slo_raw:
            kwargs["slo_spec"] = Path(slo_raw)
        mout_raw = os.environ.get("REPRO_METRICS_OUT", "").strip()
        if mout_raw:
            kwargs["metrics_out"] = Path(mout_raw)
        mint_raw = os.environ.get("REPRO_METRICS_INTERVAL", "").strip()
        if mint_raw:
            try:
                kwargs["metrics_interval"] = float(mint_raw)
            except ValueError:
                pass
        arrivals_raw = os.environ.get("REPRO_LOADTEST_ARRIVALS", "").strip()
        if arrivals_raw:
            kwargs["loadtest_arrivals"] = arrivals_raw.lower()
        rate_raw = os.environ.get("REPRO_LOADTEST_RATE", "").strip()
        if rate_raw:
            try:
                kwargs["loadtest_rate"] = _parse_rates(rate_raw)
            except ValueError:
                pass
        dur_raw = os.environ.get("REPRO_LOADTEST_DURATION", "").strip()
        if dur_raw:
            try:
                kwargs["loadtest_duration"] = float(dur_raw)
            except ValueError:
                pass
        mix_raw = os.environ.get("REPRO_LOADTEST_MIX", "").strip()
        if mix_raw:
            kwargs["loadtest_mix"] = mix_raw.lower()
        fleet_raw = os.environ.get("REPRO_FLEET", "").strip()
        if fleet_raw:
            kwargs["fleet"] = fleet_raw
        objective_raw = os.environ.get("REPRO_OBJECTIVE", "").strip()
        if objective_raw:
            kwargs["objective"] = objective_raw.lower()
        matrix_raw = os.environ.get("REPRO_BENCH_MATRIX", "").strip()
        if matrix_raw:
            kwargs["bench_matrix"] = Path(matrix_raw)
        history_raw = os.environ.get("REPRO_BENCH_HISTORY", "").strip()
        if history_raw:
            kwargs["bench_history"] = Path(history_raw)
        if any(name.startswith("REPRO_RETRY_") for name in os.environ):
            kwargs["retry"] = RetryPolicy.from_env()
        return kwargs

    @classmethod
    def resolve(
        cls,
        *,
        jobs: int | None = None,
        cache_dir: str | Path | None = None,
        no_cache: bool = False,
        kernels: str | None = None,
        no_shm: bool = False,
        retry: RetryPolicy | None = None,
        fault_plan: str | None = None,
        resume: bool | None = None,
        checkpoint_dir: str | Path | None = None,
        slo_spec: str | Path | None = None,
        metrics_out: str | Path | None = None,
        metrics_interval: float | None = None,
        loadtest_arrivals: str | None = None,
        loadtest_rate: str | tuple[float, ...] | None = None,
        loadtest_duration: float | None = None,
        loadtest_mix: str | None = None,
        fleet: str | None = None,
        objective: str | None = None,
        bench_matrix: str | Path | None = None,
        bench_history: str | Path | None = None,
    ) -> "Settings":
        """Resolve CLI flags over the environment over the defaults.

        Every parameter is a CLI flag value; ``None`` (or ``False`` for
        ``no_cache`` / ``no_shm``) means the flag was not given, so the
        environment (then the default) wins for that field.
        """
        settings = cls.from_env()
        updates: dict[str, object] = {}
        if jobs is not None:
            updates["jobs"] = max(int(jobs), 1)
        if cache_dir is not None:
            updates["cache_dir"] = Path(cache_dir)
        if no_cache:
            updates["cache_enabled"] = False
        if kernels is not None:
            updates["kernels"] = kernels
        if no_shm:
            updates["shm"] = False
        if retry is not None:
            updates["retry"] = retry
        if fault_plan is not None:
            updates["fault_plan"] = fault_plan
        if resume is not None:
            updates["resume"] = bool(resume)
        if checkpoint_dir is not None:
            updates["checkpoint_dir"] = Path(checkpoint_dir)
        if slo_spec is not None:
            updates["slo_spec"] = Path(slo_spec)
        if metrics_out is not None:
            updates["metrics_out"] = Path(metrics_out)
        if metrics_interval is not None:
            updates["metrics_interval"] = float(metrics_interval)
        if loadtest_arrivals is not None:
            updates["loadtest_arrivals"] = loadtest_arrivals.lower()
        if loadtest_rate is not None:
            updates["loadtest_rate"] = (
                _parse_rates(loadtest_rate)
                if isinstance(loadtest_rate, str)
                else tuple(float(r) for r in loadtest_rate)
            )
        if loadtest_duration is not None:
            updates["loadtest_duration"] = float(loadtest_duration)
        if loadtest_mix is not None:
            updates["loadtest_mix"] = loadtest_mix.lower()
        if fleet is not None:
            updates["fleet"] = fleet
        if objective is not None:
            updates["objective"] = objective.lower()
        if bench_matrix is not None:
            updates["bench_matrix"] = Path(bench_matrix)
        if bench_history is not None:
            updates["bench_history"] = Path(bench_history)
        return replace(settings, **updates) if updates else settings  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    def apply(self) -> "Settings":
        """Install this configuration process-wide.

        Pushes the resolved values into the sweep engine, the resilience
        layer, and the kernel dispatch; afterwards none of them consults
        the environment again until :func:`reset` (tests) or another
        ``apply``. Returns ``self`` for chaining.
        """
        from repro import resilience
        from repro.experiments import parallel as engine
        from repro.experiments import transport

        engine.configure(
            jobs=self.jobs,
            cache_dir=(
                False if not self.cache_enabled
                else self.cache_dir if self.cache_dir is not None
                else None
            ),
        )
        resilience.configure(
            fault_plan=self.fault_plan if self.fault_plan else None,
            retry=self.retry,
            resume=self.resume,
            checkpoint_dir=self.checkpoint_dir,
        )
        _kernels.select_backend(self.kernels)
        transport.configure(self.shm)
        return self

    @staticmethod
    def reset() -> None:
        """Undo :meth:`apply`: restore every subsystem's env-fallback
        behaviour (used by tests and by long-lived embedding hosts)."""
        from repro import resilience
        from repro.experiments import parallel as engine
        from repro.experiments import transport

        engine.configure(jobs=None, cache_dir=None)
        resilience.reset()
        _kernels.select_backend(None)
        transport.configure(None)
