"""Retry policies: bounded attempts, exponential backoff, deterministic
jitter, and retryable-vs-fatal exception classification.

The sweep engine applies one :class:`RetryPolicy` to per-cell work
(:func:`repro.experiments.parallel.run_tasks`) and to persistent-cache
I/O (:mod:`repro.experiments.cache`). Two properties matter for a
reproduction harness:

- **Determinism.** Jitter is derived by hashing (seed, token, attempt),
  never from global RNG state, so a fixed seed yields the exact same
  backoff schedule on every run — asserted by
  ``tests/property/test_retry_props.py``.
- **Classification.** Transient failures (injected faults, I/O errors,
  timeouts) retry; programming errors (``ValueError`` et al.) and
  :data:`PERMANENT_OS_ERRORS` (a missing or unreadable path) fail
  immediately so a genuinely broken cell cannot burn the retry budget.

The ``REPRO_RETRY_*`` family (``ATTEMPTS``, ``BASE_DELAY``, ``GROWTH``,
``MAX_DELAY``, ``JITTER``, ``SEED``; all optional) is read by
:meth:`RetryPolicy.from_env`, which is the ``retry`` row's reader in
:data:`repro.api.settings.FIELD_TABLE` and has no other caller: the
policy in force is the one :func:`install_policy` last installed
(:meth:`repro.api.settings.Settings.apply` calls it); ``RetryPolicy()`` by
default.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import TypeVar

from repro.obs import session as obs
from repro.resilience.faults import InjectedFault

__all__ = [
    "DEFAULT_RETRYABLE",
    "PERMANENT_OS_ERRORS",
    "RetryPolicy",
    "call_with_retry",
    "install_policy",
    "retry_policy",
]

_R = TypeVar("_R")

#: Exception types retried by default: injected chaos plus the transient
#: I/O family, less :data:`PERMANENT_OS_ERRORS`.
DEFAULT_RETRYABLE: tuple[type[BaseException], ...] = (
    InjectedFault,
    TimeoutError,
    ConnectionError,
    OSError,
)

#: ``OSError`` subclasses no policy retries: a path that is missing, is a
#: directory, runs through a file or is not readable stays so, and retrying
#: it only sleeps the backoff (a missing cache entry is a miss, not a fault).
PERMANENT_OS_ERRORS: tuple[type[OSError], ...] = (
    FileNotFoundError,
    NotADirectoryError,
    IsADirectoryError,
    PermissionError,
)

_ENV_PREFIX = "REPRO_RETRY_"


def _env(name: str, default):
    """``REPRO_RETRY_<name>`` as ``default``'s type; unset or malformed
    reads as ``default``."""
    raw = os.environ.get(_ENV_PREFIX + name, "").strip()
    try:
        return type(default)(raw) if raw else default
    except ValueError:
        return default


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to try, and how long to wait between tries."""

    max_attempts: int = 3
    base_delay: float = 0.05
    growth: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5          # fraction of the raw delay, in [0, 1]
    seed: int = 0
    retryable: tuple[type[BaseException], ...] = DEFAULT_RETRYABLE

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.growth < 1.0:
            raise ValueError("growth must be >= 1 (backoff cannot shrink)")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    @classmethod
    def from_env(cls) -> "RetryPolicy":
        """A policy built from the ``REPRO_RETRY_*`` variables."""
        return cls(
            max_attempts=_env("ATTEMPTS", cls.max_attempts),
            base_delay=_env("BASE_DELAY", cls.base_delay),
            growth=_env("GROWTH", cls.growth),
            max_delay=_env("MAX_DELAY", cls.max_delay),
            jitter=_env("JITTER", cls.jitter),
            seed=_env("SEED", cls.seed),
        )

    # ------------------------------------------------------------------
    def is_retryable(self, exc: BaseException) -> bool:
        return isinstance(exc, self.retryable) and not isinstance(exc, PERMANENT_OS_ERRORS)

    def raw_delay(self, attempt: int) -> float:
        """Un-jittered delay after the ``attempt``-th failure (1-based):
        ``base * growth**(attempt-1)``, capped at ``max_delay``. Monotone
        non-decreasing in ``attempt``."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        return min(self.max_delay, self.base_delay * self.growth ** (attempt - 1))

    def backoff_delay(self, attempt: int, token: str = "") -> float:
        """Jittered delay after the ``attempt``-th failure. Always within
        ``raw * (1 ± jitter)``; deterministic in (seed, token, attempt)."""
        raw = self.raw_delay(attempt)
        if not self.jitter or not raw:
            return raw
        digest = hashlib.sha256(
            f"{self.seed}|{token}|{attempt}".encode()
        ).digest()
        unit = int.from_bytes(digest[:8], "big") / 2.0 ** 64
        return raw * (1.0 + self.jitter * (2.0 * unit - 1.0))

    def schedule(self, token: str = "") -> list[float]:
        """Every backoff delay this policy can sleep (one fewer than
        ``max_attempts``), in order."""
        return [
            self.backoff_delay(attempt, token)
            for attempt in range(1, self.max_attempts)
        ]


#: The installed retry policy (:func:`install_policy`).
_policy = RetryPolicy()


def install_policy(policy: RetryPolicy) -> None:
    """Install ``policy`` process-wide."""
    global _policy
    if not isinstance(policy, RetryPolicy):
        raise TypeError("retry must be a RetryPolicy")
    _policy = policy


def retry_policy() -> RetryPolicy:
    """The installed retry policy."""
    return _policy


def call_with_retry(
    fn: Callable[[], _R],
    *,
    policy: RetryPolicy,
    token: str = "",
    label: str = "",
    sleeper: Callable[[float], None] | None = None,
    on_retry: Callable[[int, BaseException, float], None] | None = None,
) -> _R:
    """Call ``fn`` under ``policy``; return its result or raise its last
    exception.

    Retries only exceptions the policy classifies as retryable, sleeping
    the jittered backoff between attempts (``token`` diversifies jitter
    across call sites). ``on_retry(attempt, exc, delay)`` fires before
    each backoff sleep. Emits ``retry.retries`` / ``retry.giveups``
    counters and the ``retry.backoff_seconds`` histogram, plus
    ``retry.retries.<label>`` when a label is given.
    """
    sleep = sleeper if sleeper is not None else time.sleep
    attempt = 0
    while True:
        attempt += 1
        try:
            return fn()
        except Exception as exc:
            if not policy.is_retryable(exc):
                raise
            if attempt >= policy.max_attempts:
                obs.inc("retry.giveups")
                if label:
                    obs.inc(f"retry.giveups.{label}")
                raise
            delay = policy.backoff_delay(attempt, token)
            obs.inc("retry.retries")
            if label:
                obs.inc(f"retry.retries.{label}")
            obs.observe("retry.backoff_seconds", delay)
            if on_retry is not None:
                on_retry(attempt, exc, delay)
            sleep(delay)
