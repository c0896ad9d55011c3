"""The opt-in ``numba`` kernel backend: JIT compiles of the dominant
SATD kernels.

The bench harness shows SATD batches dominate the remaining kernel time
(``transform.satd_batch`` is the hottest workload by ns/block budget),
and Hadamard transforms are pure ±-additions: on the codec's actual
inputs — pixel differences, which are integer-valued in float64 — every
summation order is exact, so a compiled loop nest is bit-identical to
the NumPy matmul formulation regardless of association order.

The backend is ``vectorized`` with the two SATD kernels swapped for the
functions below (:mod:`repro.codec.transform` calls them when
``kernels.is_jit()``). When numba is not installed the backend is
*unavailable*: selecting it produces a one-time warning and runs
``vectorized``, never a crash. Compilation happens lazily on first use;
a compile failure likewise degrades to the NumPy formulation with a
warning.
"""

from __future__ import annotations

import sys
import warnings
from typing import Callable

import numpy as np

__all__ = ["unavailable_reason", "satd_batch_jit", "hadamard_sad_batch_jit"]

#: Lazily compiled numba dispatchers, keyed by kernel id.
_compiled: dict[str, Callable] = {}
_compile_failed: dict[str, str] = {}

# 4x4 Hadamard matrix; entries are ±1, so all products are exact.
_H4 = np.array(
    [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, -1, 1], [1, -1, 1, -1]],
    dtype=np.float64,
)


def _warn_fallback(kernel: str, why: str) -> None:
    if kernel in _compile_failed:
        return
    _compile_failed[kernel] = why
    message = (
        f"numba backend: compiling {kernel} failed ({why}); "
        "using the NumPy formulation for this kernel"
    )
    warnings.warn(message, UserWarning, stacklevel=3)
    print(f"repro.codec.backend_numba: {message}", file=sys.stderr)


def _jit(kernel: str, builder: Callable[[], Callable]) -> Callable | None:
    if kernel in _compile_failed:
        return None
    fn = _compiled.get(kernel)
    if fn is None:
        try:
            fn = builder()
        except Exception as exc:  # numba raises many distinct types
            _warn_fallback(kernel, f"{type(exc).__name__}: {exc}")
            return None
        _compiled[kernel] = fn
    return fn


def _build_satd_batch() -> Callable:
    import numba

    h4 = _H4

    @numba.njit(cache=False, fastmath=False)
    def _satd_batch(arr):  # (k, n, 4, 4) float64, contiguous
        k = arr.shape[0]
        n = arr.shape[1]
        out = np.empty(k, dtype=np.float64)
        for i in range(k):
            total = 0.0
            for j in range(n):
                for r in range(4):
                    for c in range(4):
                        v = 0.0
                        for a in range(4):
                            row = h4[r, a]
                            for b in range(4):
                                v += row * arr[i, j, a, b] * h4[c, b]
                        total += abs(v)
            out[i] = total / 2.0
        return out

    return _satd_batch


def _build_hadamard_sad_batch() -> Callable:
    import numba

    h4 = _H4

    @numba.njit(cache=False, fastmath=False)
    def _hadamard_sad_batch(cur, cands):  # (16, 16), (k, 16, 16) float64
        k = cands.shape[0]
        out = np.empty(k, dtype=np.float64)
        for i in range(k):
            total = 0.0
            for qy in range(4):
                for qx in range(4):
                    for r in range(4):
                        for c in range(4):
                            v = 0.0
                            for a in range(4):
                                row = h4[r, a]
                                for b in range(4):
                                    d = (
                                        cur[qy * 4 + a, qx * 4 + b]
                                        - cands[i, qy * 4 + a, qx * 4 + b]
                                    )
                                    v += row * d * h4[c, b]
                            total += abs(v)
            out[i] = total / 2.0
        return out

    return _hadamard_sad_batch


def satd_batch_jit(arr: np.ndarray) -> np.ndarray:
    """JIT override for ``transform.satd_batch`` on a float64 batch.

    Falls back to the fixed-order NumPy matmul formulation when the
    compile fails (warns once).
    """
    fn = _jit("transform.satd_batch", _build_satd_batch)
    arr = np.ascontiguousarray(arr)
    if fn is not None:
        return fn(arr)
    trans = _H4 @ arr @ _H4.T
    return np.abs(trans).reshape(arr.shape[0], -1).sum(axis=1) / 2.0


def hadamard_sad_batch_jit(cur: np.ndarray, cands: np.ndarray) -> np.ndarray:
    """JIT override for ``transform.hadamard_sad_batch``.

    Computes the per-candidate 16x16 SATD without materializing the
    ``(k, 16, 4, 4)`` difference blocks; falls back to the NumPy path on
    a compile failure (warns once).
    """
    cur64 = np.ascontiguousarray(cur, dtype=np.float64)
    cands64 = np.ascontiguousarray(cands, dtype=np.float64)
    fn = _jit("transform.hadamard_sad_batch", _build_hadamard_sad_batch)
    if fn is not None:
        return fn(cur64, cands64)
    diff = cur64[None] - cands64
    k = diff.shape[0]
    blocks = (
        diff.reshape(k, 4, 4, 4, 4).transpose(0, 1, 3, 2, 4).reshape(k, 16, 4, 4)
    )
    trans = _H4 @ np.ascontiguousarray(blocks) @ _H4.T
    return np.abs(trans).reshape(k, -1).sum(axis=1) / 2.0


def unavailable_reason() -> str | None:
    """Why the ``numba`` backend cannot run here (``None`` if it can)."""
    import importlib.util

    try:
        missing = importlib.util.find_spec("numba") is None
    except (ImportError, ValueError):
        missing = True
    return "numba is not installed" if missing else None
