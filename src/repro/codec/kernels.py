"""The kernel backend switch (``REPRO_KERNELS=<backend>``).

Each codec hot loop (SATD/DCT, motion candidate scoring, intra
prediction, deblocking, run-level coding) has two bodies, chosen by
:func:`is_vectorized`, one per backend name:

- ``reference`` — the original per-block / per-candidate Python loops,
  kept verbatim as the readable oracle for each kernel;
- ``vectorized`` (default) — the one fast path: NumPy rewrites that
  produce **bit-identical** outputs.

Bit-identity is a hard contract, enforced by
``tests/property/test_kernel_equivalence.py``, so sweep cache entries,
golden trends, and the µarch traces are backend-independent.

The backend resolves, in order, from the innermost
:func:`backend_scope`, an explicit :func:`select_backend`
(`Settings.apply` routes here), the ``REPRO_KERNELS`` environment
variable, and the default. Resolution is *bound*, not asked per call:
:func:`active_backend` stores it in a module flag that
:func:`is_vectorized` merely reads. Binding happens when
the selection changes and at the codec entry points (``Encoder.encode``,
``decoder.decode``), so a flipped ``REPRO_KERNELS`` takes effect at the
next encode/decode and a backend never changes in the middle of one.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, NamedTuple

__all__ = [
    "BackendInfo",
    "KERNEL_BACKENDS",
    "DEFAULT_BACKEND",
    "active_backend",
    "all_backends",
    "backend_scope",
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


_BACKENDS: dict[str, BackendInfo] = {
    row.name: row
    for row in (
        BackendInfo("reference", "scalar per-block Python loops (the readable oracle)"),
        BackendInfo("vectorized", "NumPy fast path, bit-identical to reference"),
    )
}
#: The two backend names, oracle first.
KERNEL_BACKENDS: tuple[str, ...] = tuple(_BACKENDS)

#: ``select_backend``'s choice; ``None`` defers to the environment / default.
_forced: str | None = None
#: Stack of ``backend_scope`` overrides; the innermost wins.
_override_stack: list[str] = []
#: The bound selection, as the flag the dispatch sites read.
_vectorized = True


def all_backends() -> tuple[BackendInfo, ...]:
    """Every backend's listing row, in :data:`KERNEL_BACKENDS` order."""
    return tuple(_BACKENDS.values())


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
    """Resolve the selection, bind the dispatch flag, return the name.

    The only place the environment is read: the hot predicate is a
    plain flag read.
    """
    global _vectorized
    if _override_stack:
        name = _override_stack[-1]
    elif _forced is not None:
        name = _forced
    else:
        raw = os.environ.get(_ENV_VAR, "").strip().lower()
        name = validate_backend(raw) if raw else DEFAULT_BACKEND
    _vectorized = name != "reference"
    return name


def _rebind() -> None:
    """Bind after a selection change; a bad ``REPRO_KERNELS`` is left
    for the next entry point (or ``Settings.from_env``) to report."""
    try:
        active_backend()
    except ValueError:
        pass


def is_vectorized() -> bool:
    """Hot-path predicate: run the NumPy bodies (``vectorized``)?"""
    return _vectorized


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
