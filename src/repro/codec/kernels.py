"""The name of the codec's one body, for the one caller that records it.

The codec runs one body; the scalar bodies it replaced are test oracles in
``tests/oracles.py``. :func:`active_backend` survives only because
``perfbench/child.py`` writes its answer into every run's host record; it
goes when that caller does.
"""

from __future__ import annotations

__all__ = ["active_backend"]


def active_backend() -> str:
    """Always ``"vectorized"``: the only body there is (read by
    ``perfbench/child.py``'s host record)."""
    return "vectorized"
