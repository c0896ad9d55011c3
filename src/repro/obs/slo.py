"""Declarative SLOs: JSON-declared objectives evaluated against metrics.

An :class:`SloSpec` is a plain-JSON document declaring service level
objectives over the metrics registry — per-stage latency percentile
targets, error-rate ceilings, deadline-miss-rate ceilings::

    {
      "name": "serve-slos",
      "objectives": [
        {"name": "queue-wait-p99", "kind": "latency",
         "metric": "service.stage_latency_s",
         "labels": {"stage": "queue_wait"},
         "percentile": 99, "threshold_s": 0.5},
        {"name": "requeue-rate", "kind": "error_rate",
         "bad": "service.requeues", "total": "service.jobs_submitted",
         "max_rate": 0.03},
        {"name": "deadline-misses", "kind": "deadline_miss_rate",
         "max_rate": 0.01}
      ]
    }

:func:`evaluate_slo` checks a spec against any flat metrics mapping —
``MetricsRegistry.as_dict()`` live, or the ``metrics`` section of a
``run.json`` artifact — so the same spec gates a running service
(``repro serve --slo``) and a finished artifact
(``repro slo check RUN.json --spec SPEC.json``). Latency objectives
match every series of the metric family whose labels are a superset of
the objective's ``labels`` and take the *worst* series (per-series
alerting semantics); empty families pass vacuously.

Each :class:`ObjectiveResult` carries the error-budget view: the burn
rate (actual over target — 1.0 means the budget is exactly spent) and
the budget fraction remaining, which is what the CI smoke asserts goes
negative when an injected crash pushes retry overhead over budget.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from repro._util import format_table, from_fields
from repro.obs.metrics import parse_label_key

__all__ = [
    "SLO_KINDS",
    "ObjectiveResult",
    "SloObjective",
    "SloReport",
    "SloSpec",
    "evaluate_slo",
    "load_slo_spec",
]

#: Supported objective kinds.
SLO_KINDS = ("latency", "error_rate", "deadline_miss_rate")

#: Percentiles a run.json histogram snapshot records; specs are limited
#: to these so live and artifact evaluation agree exactly.
_SNAPSHOT_PERCENTILES = (50.0, 90.0, 99.0)

#: Default counter pair for ``deadline_miss_rate`` objectives.
_DEADLINE_BAD = "service.deadline_misses"
_DEADLINE_TOTAL = "service.jobs_with_deadline"

#: Burn-rate ceiling used instead of infinity when the target is zero,
#: so reports stay strict-JSON serializable.
_BURN_CAP = 1e9


@dataclass(frozen=True)
class SloObjective:
    """One declared objective.

    ``latency`` objectives target a histogram family
    (``metric`` + ``labels`` match, ``percentile`` ∈ {50, 90, 99},
    ``threshold_s`` upper bound); ``error_rate`` objectives bound the
    ratio of two counters (``bad`` / ``total`` ≤ ``max_rate``);
    ``deadline_miss_rate`` is an ``error_rate`` over the service's
    deadline counters unless ``bad`` / ``total`` override them.
    """

    name: str
    kind: str
    metric: str | None = None
    labels: dict[str, str] = field(default_factory=dict)
    percentile: float = 99.0
    threshold_s: float | None = None
    bad: str | None = None
    total: str | None = None
    max_rate: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("objective needs a name")
        if self.kind not in SLO_KINDS:
            raise ValueError(
                f"objective {self.name!r}: unknown kind {self.kind!r}; "
                f"choose from {', '.join(SLO_KINDS)}"
            )
        if self.kind == "latency":
            if not self.metric:
                raise ValueError(
                    f"objective {self.name!r}: latency objectives need a "
                    "'metric' (histogram family name)"
                )
            if float(self.percentile) not in _SNAPSHOT_PERCENTILES:
                raise ValueError(
                    f"objective {self.name!r}: percentile must be one of "
                    f"{sorted(int(p) for p in _SNAPSHOT_PERCENTILES)} "
                    "(the percentiles run.json snapshots record), got "
                    f"{self.percentile}"
                )
            if self.threshold_s is None or self.threshold_s <= 0:
                raise ValueError(
                    f"objective {self.name!r}: latency objectives need a "
                    "positive 'threshold_s'"
                )
        else:
            if self.max_rate is None or self.max_rate < 0:
                raise ValueError(
                    f"objective {self.name!r}: {self.kind} objectives need "
                    "a non-negative 'max_rate'"
                )
            if self.kind == "error_rate" and not (self.bad and self.total):
                raise ValueError(
                    f"objective {self.name!r}: error_rate objectives need "
                    "'bad' and 'total' counter names"
                )

    # -- serde ---------------------------------------------------------
    def to_payload(self) -> dict[str, object]:
        """Plain-JSON form (inverse of :meth:`from_payload`)."""
        doc: dict[str, object] = {"name": self.name, "kind": self.kind}
        if self.kind == "latency":
            doc["metric"] = self.metric
            if self.labels:
                doc["labels"] = dict(self.labels)
            doc["percentile"] = self.percentile
            doc["threshold_s"] = self.threshold_s
        else:
            if self.bad:
                doc["bad"] = self.bad
            if self.total:
                doc["total"] = self.total
            doc["max_rate"] = self.max_rate
        return doc

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "SloObjective":
        """Build an objective from one spec-file entry; unknown keys are
        rejected so typos fail loudly at load time."""
        unknown = set(payload) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(
                f"objective has unknown fields: {sorted(unknown)}"
            )
        kwargs = dict(payload)
        labels = kwargs.get("labels")
        if labels is not None:
            kwargs["labels"] = {str(k): str(v) for k, v in labels.items()}  # type: ignore[union-attr]
        return cls(**kwargs)  # type: ignore[arg-type]


@dataclass(frozen=True)
class SloSpec:
    """A named set of objectives (one spec file)."""

    name: str
    objectives: tuple[SloObjective, ...]

    def __post_init__(self) -> None:
        if not self.objectives:
            raise ValueError(f"SLO spec {self.name!r} declares no objectives")
        names = [o.name for o in self.objectives]
        if len(names) != len(set(names)):
            raise ValueError(
                f"SLO spec {self.name!r} has duplicate objective names"
            )

    def to_payload(self) -> dict[str, object]:
        """Plain-JSON form (inverse of :meth:`from_payload`)."""
        return {
            "name": self.name,
            "objectives": [o.to_payload() for o in self.objectives],
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "SloSpec":
        """Build a spec from a parsed JSON document."""
        if not isinstance(payload, Mapping):
            raise ValueError("SLO spec must be a JSON object")
        objectives = payload.get("objectives")
        if not isinstance(objectives, list):
            raise ValueError("SLO spec needs an 'objectives' list")
        return cls(
            name=str(payload.get("name", "slo")),
            objectives=tuple(
                SloObjective.from_payload(o) for o in objectives
            ),
        )


def load_slo_spec(path: str | Path) -> SloSpec:
    """Read and validate an SLO spec file."""
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    try:
        return SloSpec.from_payload(doc)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad SLO spec: {exc}") from exc


# ----------------------------------------------------------------------
# Evaluation.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ObjectiveResult:
    """One objective's evaluation against one metrics mapping."""

    name: str
    kind: str
    ok: bool
    actual: float            # worst percentile estimate, or the bad-rate
    target: float            # threshold_s or max_rate
    burn_rate: float         # actual / target (1.0 = budget exactly spent)
    budget_remaining: float  # 1 - burn_rate, floored at -BURN_CAP
    detail: str              # which series / counters drove the verdict

    def to_payload(self) -> dict[str, object]:
        """Plain-JSON form (the ``slo.objectives[]`` rows in run.json)."""
        return asdict(self)


@dataclass(frozen=True)
class SloReport:
    """A full spec evaluation: per-objective results plus the verdict."""

    spec_name: str
    results: tuple[ObjectiveResult, ...]

    @property
    def ok(self) -> bool:
        """Whether every objective held."""
        return all(r.ok for r in self.results)

    @property
    def breached(self) -> tuple[str, ...]:
        """Names of the objectives that did not hold."""
        return tuple(r.name for r in self.results if not r.ok)

    def to_payload(self) -> dict[str, object]:
        """The ``slo`` section embedded in run.json."""
        return {
            "spec": self.spec_name,
            "ok": self.ok,
            "breached": list(self.breached),
            "objectives": [r.to_payload() for r in self.results],
        }

    @classmethod
    def from_payload(cls, payload: object) -> "SloReport":
        """Inverse of :meth:`to_payload`: ``ok`` / ``breached`` are derived
        and ignored, a missing or mistyped field raises ``ValueError``."""
        return from_fields(cls, payload, "slo",
                           keys={"spec_name": "spec", "results": "objectives"})

    def render(self) -> str:
        """Human-readable table for ``repro slo check`` / ``repro serve``."""
        rows = []
        for r in self.results:
            rows.append([
                r.name, r.kind, "ok" if r.ok else "BREACH",
                format(r.actual, ".4g"), format(r.target, ".4g"),
                format(r.burn_rate, ".3f"),
                format(r.budget_remaining, "+.3f"),
            ])
        table = format_table(
            ["objective", "kind", "verdict", "actual", "target",
             "burn", "budget left"],
            rows,
        )
        verdict = ("all objectives met" if self.ok else
                   f"BREACHED: {', '.join(self.breached)}")
        return f"slo {self.spec_name}: {verdict}\n{table}"


def _burn(actual: float, target: float) -> float:
    if target > 0:
        return min(actual / target, _BURN_CAP)
    return 0.0 if actual <= 0 else _BURN_CAP


def _latency_result(obj: SloObjective,
                    metrics: Mapping[str, object]) -> ObjectiveResult:
    """Worst matching series' p{percentile} against the threshold."""
    pkey = f"p{int(obj.percentile)}"
    worst = 0.0
    worst_series = "(no observations)"
    matched = 0
    for key, snap in metrics.items():
        if not isinstance(snap, Mapping):
            continue
        name, labels = parse_label_key(key)
        if name != obj.metric:
            continue
        if any(labels.get(k) != v for k, v in obj.labels.items()):
            continue
        if not snap.get("count"):
            continue
        matched += 1
        estimate = float(snap.get(pkey, 0.0))
        if estimate >= worst:
            worst = estimate
            worst_series = key
    threshold = float(obj.threshold_s)  # type: ignore[arg-type]
    burn = _burn(worst, threshold)
    return ObjectiveResult(
        name=obj.name,
        kind=obj.kind,
        ok=worst <= threshold,
        actual=worst,
        target=threshold,
        burn_rate=burn,
        budget_remaining=max(1.0 - burn, -_BURN_CAP),
        detail=(f"{pkey} of {matched} series; worst: {worst_series}"
                if matched else "no matching series (vacuous pass)"),
    )


def _scalar(metrics: Mapping[str, object], name: str) -> float:
    value = metrics.get(name, 0.0)
    if isinstance(value, Mapping):  # histogram snapshot: use its count
        return float(value.get("count", 0.0))
    return float(value)  # type: ignore[arg-type]


def _ratio_result(obj: SloObjective,
                  metrics: Mapping[str, object]) -> ObjectiveResult:
    """bad / total counters against the max_rate ceiling."""
    bad_name = obj.bad or _DEADLINE_BAD
    total_name = obj.total or _DEADLINE_TOTAL
    bad = _scalar(metrics, bad_name)
    total = _scalar(metrics, total_name)
    rate = bad / total if total > 0 else 0.0
    target = float(obj.max_rate)  # type: ignore[arg-type]
    burn = _burn(rate, target)
    return ObjectiveResult(
        name=obj.name,
        kind=obj.kind,
        ok=rate <= target,
        actual=rate,
        target=target,
        burn_rate=burn,
        budget_remaining=max(1.0 - burn, -_BURN_CAP),
        detail=(f"{bad_name}={bad:g} / {total_name}={total:g}"
                if total > 0 else
                f"{total_name} is zero (vacuous pass)"),
    )


def evaluate_slo(spec: SloSpec,
                 metrics: Mapping[str, object]) -> SloReport:
    """Evaluate every objective of ``spec`` against ``metrics``.

    ``metrics`` is any flat series-key → value mapping:
    ``MetricsRegistry.as_dict()`` for a live registry, or a run.json
    artifact's ``metrics`` section — both record the same histogram
    percentile estimates, so the verdict is identical either way.
    """
    results = []
    for obj in spec.objectives:
        if obj.kind == "latency":
            results.append(_latency_result(obj, metrics))
        else:
            results.append(_ratio_result(obj, metrics))
    return SloReport(spec_name=spec.name, results=tuple(results))
