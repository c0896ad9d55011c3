"""Quantization, dequantization, and trellis quantization.

The quantization step size follows H.264's exponential ladder (it doubles
every 6 QP), and the trellis quantizer implements the rate-distortion
coefficient adjustment the paper describes in §II-B4: given the entropy
coder's cost model, individual coefficient levels are nudged toward zero
when the rate saving outweighs the added distortion.
"""

from __future__ import annotations

import numpy as np

from repro._util import check_range

__all__ = [
    "qstep",
    "rd_lambda",
    "quantize",
    "quantize_steps",
    "dequantize",
    "trellis_quantize",
]

_QSTEP_BASE = 0.625  # H.264 Qstep at QP 0


def qstep(qp: int | float) -> float:
    """Quantization step size for a QP; doubles every 6 QP like H.264."""
    check_range("qp", qp, 0, 51)
    return _QSTEP_BASE * (2.0 ** (qp / 6.0))


def rd_lambda(qp: int | float) -> float:
    """Rate-distortion Lagrange multiplier (x264's lambda schedule)."""
    check_range("qp", qp, 0, 51)
    return 0.85 * (2.0 ** ((qp - 12.0) / 3.0))


def quantize(coeffs: np.ndarray, qp: int, *, deadzone: float = 1.0 / 3.0) -> np.ndarray:
    """Quantize transform coefficients to integer levels.

    Uses a dead-zone quantizer (offset < 0.5) like real encoders: small
    coefficients collapse to zero more aggressively than round-to-nearest,
    trading a little distortion for significant rate.
    """
    check_range("deadzone", deadzone, 0.0, 0.5)
    return quantize_steps(coeffs, qstep(qp), deadzone=deadzone)


def quantize_steps(
    coeffs: np.ndarray, steps, *, deadzone: float = 1.0 / 3.0
) -> np.ndarray:
    """:func:`quantize` at given step sizes: ``steps`` broadcasts against
    ``coeffs`` — one ``qstep`` per row quantizes a batch of macroblocks,
    each element divided by its own row's step, as :func:`quantize` would."""
    arr = np.asarray(coeffs, dtype=np.float64)
    levels = np.abs(arr)
    levels /= steps
    levels += deadzone
    np.floor(levels, out=levels)
    levels *= np.sign(arr)
    return levels.astype(np.int32)


def dequantize(levels: np.ndarray, qp: int) -> np.ndarray:
    """Reconstruct coefficient values from integer levels."""
    return np.asarray(levels, dtype=np.float64) * qstep(qp)


def _level_bits(level: np.ndarray | int) -> np.ndarray | int:
    """Approximate exp-Golomb signed bit cost of a level (vectorized)."""
    # se(v) maps magnitude m to code number ~2m, costing 2*floor(log2(2m+1))+1;
    # frexp's exponent of the integer 2m+1 is floor(log2(2m+1)) + 1, exactly.
    return 2 * np.frexp(2 * np.abs(level) + 1.0)[1] - 1


def trellis_quantize(
    coeffs: np.ndarray,
    qp: int,
    *,
    level: int = 1,
) -> np.ndarray:
    """Rate-distortion-optimized quantization (x264 ``trellis``).

    ``level`` 0 returns plain dead-zone quantization. Levels 1 and 2
    start from *round-to-nearest* quantization (like x264, whose trellis
    replaces the dead-zone heuristic with explicit rate-distortion
    decisions) and then run the RD pass; level 2 additionally considers
    demoting levels by one step (not just to zero), mirroring x264's more
    exhaustive trellis used during all mode decisions.

    For each nonzero level we compare::

        J(keep)  = D(keep)           + lambda * R(level)
        J(lower) = D(lower/zero)     + lambda * R(lower)

    and keep whichever minimizes J. Distortion is squared error in the
    (orthonormal) transform domain, so it equals pixel-domain SSE.
    """
    if level not in (0, 1, 2):
        raise ValueError(f"trellis level must be 0, 1 or 2, got {level}")
    if level == 0:
        return quantize(coeffs, qp)
    arr = np.asarray(coeffs, dtype=np.float64)
    step = qstep(qp)
    lam = rd_lambda(qp)
    # Round-to-nearest start: ``quantize`` at dead zone 0.5, kept in float.
    mag = np.floor(np.abs(arr) / step + 0.5)
    if not mag.any():
        return np.zeros(arr.shape, dtype=np.int32)
    levels = np.copysign(mag, arr)

    # Candidate: zero the coefficient. A zero costs ~1 bit in run coding
    # (``_level_bits(0)``), so where the level already is zero the two
    # costs are equal and ``<`` keeps it.
    j_keep = (arr - levels * step) ** 2 + lam * _level_bits(mag)
    j_zero = arr**2 + lam
    out = np.where(j_zero < j_keep, 0.0, levels)

    if level == 2:
        # Candidate: demote magnitude by one (only where |level| > 1, so
        # where the level was kept and its cost is ``j_keep``).
        big = np.abs(out) > 1
        if big.any():
            lowered = out - np.sign(out)
            j_low = (arr - lowered * step) ** 2 + lam * _level_bits(lowered)
            out = np.where(big & (j_low < j_keep), lowered, out)

    return out.astype(np.int32)
