"""Deterministic, seedable fault injection for the sweep engine.

Production transcoding farms lose workers, hit flaky storage, and see
encoder crashes mid-campaign; the resilience layer must be provably
correct under exactly those failures. This module makes them
*reproducible*: instrumented call sites throughout the pipeline invoke
:func:`fault_point`, and an installed fault plan decides — purely from
the site name, a per-site call index, and an optional detail string —
whether that call raises, stalls, or kills the process.

A plan is a ``;``-separated list of clauses, each ``site`` followed by
``,field=value`` modifiers::

    sweep.compute,at=3,raise=InjectedFault
    cache.read,rate=0.25,seed=7,raise=OSError
    worker.task,match=5,kill
    encoder.profile,every=4,stall=0.2

Selectors (``at`` — 1-based call indices joined by ``|``; ``every`` —
every Nth call; ``rate`` + ``seed`` — deterministic pseudo-random
fraction of calls) pick *when* a matching site triggers; ``match``
restricts to calls whose detail string contains the substring; ``max``
caps total activations. Exactly one action per clause: ``raise=<Exc>``,
``stall=<seconds>``, or ``kill`` (``os._exit`` — models a worker process
crash, recoverable only via pool restart or a re-run against the
result cache).

Determinism contract: call indices are counted per site per process,
and every sweep task counts its own from zero (:func:`task_counters`),
whether it runs serially in-process or in a pool worker, so a given plan
activates at the same points on every run and under every ``--jobs``.
The ``rate`` selector hashes (seed, site, index) — no global RNG state
is consumed.

The active plan is whatever :func:`install_plan` last installed
(``--fault-plan`` / ``REPRO_FAULT_PLAN`` arrive through
:meth:`repro.api.Settings.apply`); none by default. With no plan active
a fault point is one global load and a ``None`` check.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from fnmatch import fnmatchcase

from repro.obs import session as obs

__all__ = [
    "FaultSpec",
    "InjectedFault",
    "fault_point",
    "install_plan",
    "parse_fault_plan",
    "task_counters",
]

#: Exit status used by ``kill`` actions, distinctive in worker logs.
KILL_EXIT_STATUS = 77


class InjectedFault(RuntimeError):
    """The default exception raised by a ``raise`` fault action.

    Classified as retryable by the default
    :class:`~repro.resilience.retry.RetryPolicy`, which is what lets
    chaos tests drive the retry path without faking real I/O errors.
    """


#: Exception types a plan may name in ``raise=``. Only safe, picklable
#: stdlib types (worker-raised faults cross a process boundary).
_EXCEPTIONS: dict[str, type[Exception]] = {
    "InjectedFault": InjectedFault,
    "RuntimeError": RuntimeError,
    "OSError": OSError,
    "ValueError": ValueError,
    "TypeError": TypeError,
    "KeyError": KeyError,
    "EOFError": EOFError,
    "TimeoutError": TimeoutError,
    "ConnectionError": ConnectionError,
    "MemoryError": MemoryError,
}

_ACTIONS = ("raise", "stall", "kill")


@dataclass(frozen=True)
class FaultSpec:
    """One clause of a fault plan."""

    site: str                      # fnmatch pattern over site names
    action: str = "raise"          # raise | stall | kill
    exception: str = "InjectedFault"
    stall_seconds: float = 0.05
    at: tuple[int, ...] = ()       # 1-based call indices
    every: int = 0                 # every Nth call (0 = unused)
    rate: float = 0.0              # deterministic pseudo-random fraction
    seed: int = 0
    match: str = ""                # substring the detail must contain
    max_triggers: int = 0          # 0 = unlimited

    def __post_init__(self) -> None:
        if not self.site:
            raise ValueError("fault clause needs a site pattern")
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.action == "raise" and self.exception not in _EXCEPTIONS:
            raise ValueError(
                f"unknown fault exception {self.exception!r}; "
                f"choose from {', '.join(sorted(_EXCEPTIONS))}"
            )
        if any(i < 1 for i in self.at):
            raise ValueError("fault 'at' indices are 1-based (>= 1)")
        if self.every < 0 or self.max_triggers < 0:
            raise ValueError("'every' and 'max' must be non-negative")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.stall_seconds < 0:
            raise ValueError("stall seconds must be non-negative")

    def selects(self, index: int, site: str) -> bool:
        """Whether call ``index`` (1-based) at ``site`` triggers this spec."""
        if self.at:
            return index in self.at
        if self.every:
            return index % self.every == 0
        if self.rate:
            return _unit_fraction(self.seed, site, index) < self.rate
        return True


def _unit_fraction(seed: int, token: str, index: int) -> float:
    """Deterministic uniform [0, 1) from (seed, token, index)."""
    digest = hashlib.sha256(f"{seed}|{token}|{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


# ----------------------------------------------------------------------
# Plan serialization: parse <-> format round-trips exactly.
# ----------------------------------------------------------------------

def parse_fault_plan(text: str) -> tuple[FaultSpec, ...]:
    """Parse a plan string into specs; raises ``ValueError`` on any
    malformed clause (unknown field, bad number, missing site)."""
    specs: list[FaultSpec] = []
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        parts = [p.strip() for p in clause.split(",")]
        site = parts[0]
        if "=" in site:
            raise ValueError(
                f"fault clause must start with a site name, got {site!r}"
            )
        kwargs: dict[str, object] = {"site": site}
        action_set = False

        def set_action(action: str, **extra: object) -> None:
            nonlocal action_set
            if action_set:
                raise ValueError(
                    f"fault clause {clause!r} has more than one action"
                )
            action_set = True
            kwargs["action"] = action
            kwargs.update(extra)

        for part in parts[1:]:
            if part == "kill":
                set_action("kill")
                continue
            if "=" not in part:
                raise ValueError(f"malformed fault field {part!r}")
            name, value = part.split("=", 1)
            try:
                if name == "raise":
                    set_action("raise", exception=value)
                elif name == "stall":
                    set_action("stall", stall_seconds=float(value))
                elif name == "at":
                    kwargs["at"] = tuple(
                        sorted(int(v) for v in value.split("|") if v)
                    )
                elif name == "every":
                    kwargs["every"] = int(value)
                elif name == "rate":
                    kwargs["rate"] = float(value)
                elif name == "seed":
                    kwargs["seed"] = int(value)
                elif name == "match":
                    kwargs["match"] = value
                elif name == "max":
                    kwargs["max_triggers"] = int(value)
                else:
                    raise ValueError(f"unknown fault field {name!r}")
            except ValueError as exc:
                # Re-raise number-parse failures with the clause context.
                raise ValueError(
                    f"bad fault field {part!r} in clause {clause!r}: {exc}"
                ) from None
        specs.append(FaultSpec(**kwargs))  # type: ignore[arg-type]
    return tuple(specs)


# ----------------------------------------------------------------------
# Installed plan + per-process trigger state.
# ----------------------------------------------------------------------

#: The installed plan; ``None`` (or empty) injects nothing.
_plan: tuple[FaultSpec, ...] | None = None

_counts: dict[str, int] = {}
_activations: dict[int, int] = {}


def install_plan(
    plan: str | Sequence[FaultSpec] | None,
) -> tuple[FaultSpec, ...] | None:
    """Install ``plan`` process-wide (a plan string or spec sequence;
    ``None`` turns injection off). Resets trigger counters. Returns the
    installed specs."""
    global _plan
    if plan is None:
        _plan = None
    elif isinstance(plan, str):
        _plan = parse_fault_plan(plan)
    else:
        _plan = tuple(plan)
    _counts.clear()
    _activations.clear()
    return _plan


@contextmanager
def task_counters() -> Iterator[None]:
    """Count per-site call indices from zero for one sweep task, then
    hand the caller back its own.

    Every sweep task runs under this, serially in-process or in a pool
    worker, so a plan selects the same calls of a task under every
    ``--jobs`` and however the pool schedules payloads onto workers; a
    site the sweep calls between its tasks (``cache.write``) keeps one
    count across the sweep, as it does in a pool's parent process.
    ``max=`` activation caps keep counting for the lifetime of the
    process (a cap that reset per task would never be reachable by a
    retried task)."""
    global _counts
    caller, _counts = _counts, {}
    try:
        yield
    finally:
        _counts = caller


def fault_point(site: str, detail: str = "") -> None:
    """Declare an injectable call site.

    No-op (one global load + ``None`` check) unless a plan is active.
    With a plan: bumps the site's call index, then applies the first
    matching spec — raising its exception, sleeping its stall, or
    killing the process.
    """
    plan = _plan
    if not plan:
        return
    index = _counts.get(site, 0) + 1
    _counts[site] = index
    obs.inc("faults.checks")
    for spec_index, spec in enumerate(plan):
        if not fnmatchcase(site, spec.site):
            continue
        if spec.match and spec.match not in detail:
            continue
        if not spec.selects(index, site):
            continue
        if spec.max_triggers and _activations.get(spec_index, 0) >= spec.max_triggers:
            continue
        _activations[spec_index] = _activations.get(spec_index, 0) + 1
        obs.inc("faults.injected")
        obs.inc(f"faults.injected.{spec.action}")
        if spec.action == "stall":
            time.sleep(spec.stall_seconds)
            return
        if spec.action == "kill":
            os._exit(KILL_EXIT_STATUS)
        raise _EXCEPTIONS[spec.exception](
            f"injected fault at {site}[{index}]"
            + (f" ({detail})" if detail else "")
        )
