"""The kernel backend switch (``REPRO_KERNELS=<backend>``).

Each codec hot loop (SATD/DCT, motion candidate scoring, intra
prediction, deblocking, run-level coding) has two bodies, chosen by
:func:`is_vectorized`. There are three fixed backend names:

- ``reference`` — the original per-block / per-candidate Python loops,
  kept verbatim as the readable oracle for each kernel;
- ``vectorized`` (default) — the one fast path: NumPy rewrites that
  produce **bit-identical** outputs;
- ``numba`` (:mod:`repro.codec.backend_numba`) — ``vectorized`` plus JIT
  compiles of the two dominant SATD kernels; without numba installed,
  selecting it warns once and runs ``vectorized``.

Bit-identity is a hard contract, enforced for every available backend by
``tests/property/test_kernel_equivalence.py``, so sweep cache entries,
golden trends, and the µarch traces are backend-independent.

The backend resolves, in order, from the innermost
:func:`backend_scope`, an explicit :func:`select_backend`
(`Settings.apply` routes here), the ``REPRO_KERNELS`` environment
variable, and the default. Resolution is *bound*, not asked per call:
:func:`active_backend` stores it in two module flags that
:func:`is_vectorized` / :func:`is_jit` merely read. Binding happens when
the selection changes and at the codec entry points (``Encoder.encode``,
``decoder.decode``), so a flipped ``REPRO_KERNELS`` takes effect at the
next encode/decode and a backend never changes in the middle of one.
"""

from __future__ import annotations

import os
import sys
import warnings
from contextlib import contextmanager
from typing import Iterator, NamedTuple

from repro.codec import backend_numba

__all__ = [
    "BackendInfo",
    "KERNEL_BACKENDS",
    "DEFAULT_BACKEND",
    "active_backend",
    "all_backends",
    "available_backends",
    "backend_info",
    "backend_scope",
    "is_jit",
    "is_vectorized",
    "select_backend",
    "validate_backend",
]

DEFAULT_BACKEND = "vectorized"
_ENV_VAR = "REPRO_KERNELS"


class BackendInfo(NamedTuple):
    """Listing row for one backend name (``repro backends``)."""

    name: str
    description: str
    #: Why the backend cannot run here (a missing optional dependency).
    unavailable_reason: str | None = None

    @property
    def available(self) -> bool:
        """Whether the backend can actually run in this process."""
        return self.unavailable_reason is None


_BACKENDS: dict[str, BackendInfo] = {
    row.name: row
    for row in (
        BackendInfo("reference", "scalar per-block Python loops (the readable oracle)"),
        BackendInfo("vectorized", "NumPy fast path, bit-identical to reference"),
        BackendInfo(
            "numba",
            "vectorized plus JIT-compiled SATD kernels",
            backend_numba.unavailable_reason(),
        ),
    )
}
#: The three backend names, oracle first.
KERNEL_BACKENDS: tuple[str, ...] = tuple(_BACKENDS)

#: ``select_backend``'s choice; ``None`` defers to the environment / default.
_forced: str | None = None
#: Stack of ``backend_scope`` overrides; the innermost wins.
_override_stack: list[str] = []
#: The bound selection, as the two flags the dispatch sites read.
_vectorized = True
_jit = False
#: Backends whose unavailability has already been warned about.
_warned: set[str] = set()


def all_backends() -> tuple[BackendInfo, ...]:
    """Every backend's listing row, in :data:`KERNEL_BACKENDS` order."""
    return tuple(_BACKENDS.values())


def available_backends() -> tuple[str, ...]:
    """Names of the backends that can actually run in this process."""
    return tuple(b.name for b in _BACKENDS.values() if b.available)


def backend_info(name: str) -> BackendInfo:
    """The listing row for ``name`` (``ValueError`` if unknown)."""
    return _BACKENDS[validate_backend(name)]


def validate_backend(name: str) -> str:
    """Return ``name`` if it is a backend name, else raise ``ValueError``:
    the one validator behind ``REPRO_KERNELS``, ``Settings.kernels``,
    :func:`select_backend` and :func:`backend_scope`."""
    if name not in _BACKENDS:
        raise ValueError(
            f"unknown kernel backend {name!r} (--kernels / {_ENV_VAR}); "
            f"expected one of {', '.join(_BACKENDS)}"
        )
    return name


def active_backend() -> str:
    """Resolve the selection, bind the dispatch flags, return the name.

    Always names an *available* backend (``numba`` without numba
    installed resolves to ``vectorized``, warning once). The only place
    the environment is read: the hot predicates are plain flag reads.
    """
    global _vectorized, _jit
    if _override_stack:
        name = _override_stack[-1]
    elif _forced is not None:
        name = _forced
    else:
        raw = os.environ.get(_ENV_VAR, "").strip().lower()
        name = validate_backend(raw) if raw else DEFAULT_BACKEND
    reason = _BACKENDS[name].unavailable_reason
    if reason is not None:
        if name not in _warned:
            _warned.add(name)
            message = (
                f"kernel backend {name!r} is unavailable ({reason}); "
                f"falling back to {DEFAULT_BACKEND!r}"
            )
            warnings.warn(message, UserWarning, stacklevel=2)
            # Visible even under warning suppression: a run must never
            # silently measure the wrong backend.
            print(f"repro.codec.kernels: {message}", file=sys.stderr)
        name = DEFAULT_BACKEND
    _vectorized = name != "reference"
    _jit = name == "numba"
    return name


def _rebind() -> None:
    """Bind after a selection change; a bad ``REPRO_KERNELS`` is left
    for the next entry point (or ``Settings.from_env``) to report."""
    try:
        active_backend()
    except ValueError:
        pass


def is_vectorized() -> bool:
    """Hot-path predicate: run the NumPy bodies (``vectorized``/``numba``)?"""
    return _vectorized


def is_jit() -> bool:
    """Hot-path predicate: use the JIT'd SATD kernels (``numba`` only)?"""
    return _jit


def select_backend(name: str | None) -> None:
    """Select a backend process-wide (``None`` reverts to env/default);
    unknown names raise ``ValueError`` eagerly."""
    global _forced
    _forced = None if name is None else validate_backend(name)
    _rebind()


@contextmanager
def backend_scope(name: str) -> Iterator[str]:
    """Scoped backend override (nestable; the innermost context wins);
    the previous backend is restored even when the body raises."""
    _override_stack.append(validate_backend(name))
    try:
        _rebind()
        yield name
    finally:
        _override_stack.pop()
        _rebind()


_rebind()  # honour REPRO_KERNELS for kernels called before any entry point
