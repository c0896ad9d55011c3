"""One resolved configuration record for every ``REPRO_*`` knob, driven
by one declarative field table.

:class:`Settings` is the frozen record; :data:`FIELD_TABLE` holds one
:class:`Knob` row per field, and everything else is derived from the
rows: :data:`ENV_VARS`, :meth:`Settings.env_overrides`,
:meth:`Settings.resolve` and the CLI's ``add_settings_flags``. The
precedence order is

    **CLI flag > environment variable > built-in default**

and this module is the only place the environment is read:
:meth:`Settings.env_overrides` walks the rows once. The subsystems (the
sweep engine, the resilience layer) each hold one
plain value per knob, initialised to the built-in default and written
only by :meth:`Settings.apply` — so what is installed *is* the applied
record, whatever is exported afterwards. ``Settings().apply()`` installs
the built-in defaults, ``Settings.from_env().apply()`` the environment;
a library caller that applies nothing runs the defaults. Fields no
subsystem holds (the service and loadtest knobs) are read off the
resolved record by the command that owns them.

A field is validated by the command that reads it, before that command
does any work: ``Settings`` itself checks only what :meth:`apply`
installs (``jobs``, ``fault_plan``), while ``ServiceConfig`` checks the
objective and fleet and ``LoadtestSpec`` the arrival process, mix, rates
and duration. So a bad service or load-test value never fails a sweep,
and this module imports nothing from the service or load-test stack.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

from repro._util import truthy
from repro.resilience.retry import RetryPolicy

__all__ = ["ENV_VARS", "FIELD_TABLE", "Knob", "Settings"]


@dataclass(frozen=True)
class Knob:
    """One :data:`FIELD_TABLE` row: all there is to know about a
    ``Settings`` field except its default.

    ``coerce`` is the only place a raw env string or flag value becomes
    the field's type. ``choices`` names the flag's
    live registry as ``module:attribute``; ``negated`` marks a flag
    (``--no-cache``) whose presence sets the field false and whose dest
    is its ``resolve()`` keyword. A malformed env value is ignored;
    ``env_reader`` loads a ``PREFIX_*`` family of variables.
    """

    field: str
    coerce: Callable[[object], object]
    env: str | None = None
    flag: str | None = None
    metavar: str | None = None
    help: str = ""
    argtype: type | None = None
    choices: str | None = None
    negated: bool = False
    env_reader: Callable[[], object | None] | None = None

    @property
    def dest(self) -> str:
        """The argparse dest of ``flag`` (``--no-cache`` -> ``no_cache``)."""
        return self.flag[2:].replace("-", "_")  # type: ignore[index]


def _name(value: object) -> str:
    return str(value).strip().lower()


def _rates(value: object) -> tuple[float, ...]:
    """Offered rates from ``"4,8,16"``, a list, or one number."""
    if isinstance(value, str):
        value = [clause for clause in value.split(",") if clause.strip()]
        if not value:
            raise ValueError("no rates given")
    if isinstance(value, (list, tuple)):
        return tuple(float(rate) for rate in value)
    return (float(value),)  # type: ignore[arg-type]


# The CLI appends "(default: $ENV, else <field default>)" to each help.
_ROWS = (
    Knob("jobs", lambda n: max(int(n), 1), "REPRO_JOBS", "--jobs", "N",
         "worker processes for sweeps", int),
    Knob("cache_dir", Path, "REPRO_CACHE_DIR", "--cache-dir", "DIR",
         "persistent sweep result cache; repeat runs become near-free"),
    Knob("cache_enabled", truthy, None, "--no-cache", negated=True,
         help="disable the result cache even if $REPRO_CACHE_DIR is set"),
    Knob("retry", lambda policy: policy, "REPRO_RETRY_*",
         env_reader=RetryPolicy.from_env),
    Knob("fault_plan", str, "REPRO_FAULT_PLAN", "--fault-plan", "PLAN",
         "inject deterministic faults, e.g. 'worker.task,at=5,kill' or "
         "'service.worker,at=3,raise=RuntimeError'"),
    Knob("slo_spec", Path, "REPRO_SLO_SPEC", "--slo", "SPEC.json",
         "evaluate the run against this SLO spec when it ends; the "
         "verdict lands in run.json (and in --metrics-out's slo.json)"),
    Knob("metrics_out", Path, "REPRO_METRICS_OUT", "--metrics-out", "DIR",
         "write metrics.prom (and, with --slo, slo.json) into DIR when "
         "the pass ends"),
    Knob("loadtest_arrivals", _name, "REPRO_LOADTEST_ARRIVALS", "--arrivals",
         choices="repro.loadgen.arrivals:ARRIVAL_KINDS",
         help="arrival process"),
    Knob("loadtest_rate", _rates, "REPRO_LOADTEST_RATE", "--rate", "R[,R...]",
         "offered rate(s) in req/s; a comma list runs one leg per rate"),
    Knob("loadtest_duration", float, "REPRO_LOADTEST_DURATION", "--duration",
         "SECONDS", "virtual seconds of offered traffic per leg", float),
    Knob("loadtest_mix", _name, "REPRO_LOADTEST_MIX", "--mix",
         help="workload mix name"),
    Knob("fleet", str, "REPRO_FLEET", "--fleet", "SPEC",
         "worker fleet: 'name[:count][:$rate]' clauses over Table IV "
         "configs and instance types, e.g. 'fe_op,be_op1:2' or "
         "'c5.xlarge,c6g.xlarge:2:$0.10'; unset, one worker per Table IV "
         "variant"),
    Knob("objective", _name, "REPRO_OBJECTIVE", "--objective",
         choices="repro.service.placement:OBJECTIVES",
         help="smart-placement objective"),
)

#: ``Settings`` field name -> its :class:`Knob`, in dataclass order.
FIELD_TABLE: dict[str, Knob] = {knob.field: knob for knob in _ROWS}
#: Environment variable -> Settings field, for documentation and tests.
ENV_VARS = {knob.env: knob.field for knob in _ROWS if knob.env}
_BY_KWARG = {**FIELD_TABLE, **{k.dest: k for k in _ROWS if k.negated}}


@dataclass(frozen=True)
class Settings:
    """Every process-wide knob, fully resolved.

    One :data:`FIELD_TABLE` row per field, which also documents it; a
    constructed ``Settings`` is inert until :meth:`apply` installs it.
    """

    jobs: int = 1
    cache_dir: Path | None = None
    cache_enabled: bool = True
    retry: RetryPolicy = RetryPolicy()
    fault_plan: str | None = None
    slo_spec: Path | None = None
    metrics_out: Path | None = None
    loadtest_arrivals: str = "poisson"
    loadtest_rate: tuple[float, ...] = (8.0,)
    loadtest_duration: float = 30.0
    loadtest_mix: str = "table3"
    fleet: str | None = None
    objective: str = "throughput"

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        # A plan is parsed eagerly so a bad one fails at resolve time,
        # not at the first fault point deep inside a sweep.
        if self.fault_plan:
            from repro.resilience.faults import parse_fault_plan

            parse_fault_plan(self.fault_plan)

    @classmethod
    def from_env(cls) -> "Settings":
        """Built-in defaults overlaid with the environment variables."""
        return cls(**cls.env_overrides())  # type: ignore[arg-type]

    @classmethod
    def env_overrides(cls) -> dict[str, object]:
        """The constructor kwargs the environment actually sets: only
        fields whose ``REPRO_*`` variable is present (and parseable), so
        a caller can tell "env said 1" from "env said nothing"."""
        kwargs: dict[str, object] = {}
        for knob in _ROWS:
            if knob.env_reader is not None:  # a PREFIX_* family of variables
                if any(n.startswith(knob.env[:-1]) for n in os.environ):
                    kwargs[knob.field] = knob.env_reader()
            elif knob.env and (raw := os.environ.get(knob.env, "").strip()):
                try:
                    kwargs[knob.field] = knob.coerce(raw)
                except ValueError:
                    pass
        return kwargs

    @classmethod
    def resolve(cls, **flags: object) -> "Settings":
        """Resolve CLI flags over the environment over the defaults.

        Keywords are field names plus the negated-flag alias
        ``no_cache``; ``None`` (``False`` for the alias) means
        "flag not given": the environment, then the default, wins. An
        unknown keyword raises ``TypeError``."""
        settings = cls.from_env()
        updates: dict[str, object] = {}
        for name, value in flags.items():
            knob = _BY_KWARG.get(name)
            if knob is None:
                raise TypeError(
                    f"resolve() got an unexpected keyword {name!r}; "
                    f"valid names: {', '.join(sorted(_BY_KWARG))}"
                )
            if name != knob.field:  # an alias: given = the field is off
                value = False if value else None
            if value is not None:
                updates[knob.field] = knob.coerce(value)
        return replace(settings, **updates) if updates else settings  # type: ignore[arg-type]

    def apply(self) -> "Settings":
        """Install this record process-wide: afterwards the sweep engine
        and resilience layer hold exactly these values, until the next
        ``apply``. Returns ``self``."""
        from repro.experiments import parallel as engine
        from repro.resilience import faults, retry

        engine.configure(
            jobs=self.jobs,
            cache_dir=self.cache_dir if self.cache_enabled else None,
        )
        retry.install_policy(self.retry)
        faults.install_plan(self.fault_plan or None)
        return self
