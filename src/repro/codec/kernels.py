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

Two levels, outermost wins: the innermost :func:`backend_scope`, else
the one process-wide selection :func:`select_backend` installs
(``Settings.apply`` routes here; it starts at :data:`DEFAULT_BACKEND`).
``REPRO_KERNELS`` is not read here: it reaches this module only through
:class:`repro.api.Settings`. Dispatch is *bound*, not asked per call:
whenever the selection changes, the choice is stored in a module flag
that :func:`is_vectorized` merely reads.
"""

from __future__ import annotations

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

#: The process-wide selection (``select_backend``).
_selected = DEFAULT_BACKEND
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
            f"unknown kernel backend {name!r} (--kernels / REPRO_KERNELS); "
            f"expected one of {', '.join(_BACKENDS)}"
        )
    return name


def active_backend() -> str:
    """The bound backend: the innermost scope, else the selection."""
    return _override_stack[-1] if _override_stack else _selected


def _bind() -> None:
    global _vectorized
    _vectorized = active_backend() != "reference"


def is_vectorized() -> bool:
    """Hot-path predicate: run the NumPy bodies (``vectorized``)?"""
    return _vectorized


def select_backend(name: str) -> None:
    """Select a backend process-wide; unknown names raise ``ValueError``
    eagerly and leave the selection as it was."""
    global _selected
    _selected = validate_backend(name)
    _bind()


@contextmanager
def backend_scope(name: str) -> Iterator[str]:
    """Scoped backend override (nestable; the innermost context wins);
    the previous backend is restored even when the body raises."""
    _override_stack.append(validate_backend(name))
    _bind()
    try:
        yield name
    finally:
        _override_stack.pop()
        _bind()
