"""Shared internal helpers used across the ``repro`` packages.

Nothing in this module is part of the public API; it collects the small
pieces of validation, deterministic randomness, and formatting glue that
would otherwise be duplicated in many modules.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import tempfile
import types
import typing
from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path

import numpy as np

__all__ = [
    "TRUTHY",
    "atomic_write_text",
    "check_range",
    "check_choice",
    "check_positive",
    "stable_seed",
    "rng_for",
    "running_sum",
    "clamp",
    "format_table",
    "from_fields",
    "geometric_mean",
    "percentile",
    "truthy",
]

#: The spellings a boolean knob given as text accepts as true,
#: case-insensitively.
TRUTHY = ("1", "true", "yes", "on")


def truthy(value: object) -> bool:
    """The one boolean-knob rule: text is true iff it is in
    :data:`TRUTHY`; anything else goes through ``bool``."""
    if isinstance(value, str):
        return value.strip().lower() in TRUTHY
    return bool(value)


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` so readers see the old file or the new
    one, never a torn one: temp file in the target directory, then
    ``os.replace``. A failed write removes the temp file and re-raises,
    leaving any previous content in place."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def check_range(name: str, value: float, lo: float, hi: float) -> None:
    """Raise ``ValueError`` unless ``lo <= value <= hi``."""
    if not (lo <= value <= hi):
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value!r}")


def check_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def check_choice(name: str, value: object, choices: Iterable[object]) -> None:
    """Raise ``ValueError`` unless ``value`` is one of ``choices``."""
    options = list(choices)
    if value not in options:
        raise ValueError(f"{name} must be one of {options}, got {value!r}")


def stable_seed(*parts: object) -> int:
    """Derive a deterministic 63-bit seed from arbitrary labels.

    The same sequence of parts always produces the same seed across runs
    and platforms, which keeps synthetic videos and sampled simulations
    reproducible without any global random state.
    """
    digest = hashlib.sha256("\x1f".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "little") & ((1 << 63) - 1)


def rng_for(*parts: object) -> np.random.Generator:
    """Return a ``numpy`` generator seeded deterministically from labels."""
    return np.random.default_rng(stable_seed(*parts))


def clamp(value: float, lo: float, hi: float) -> float:
    """Clamp ``value`` to the closed interval ``[lo, hi]``."""
    return lo if value < lo else hi if value > hi else value


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values; raises on empty or nonpositive."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("geometric_mean of empty sequence")
    if np.any(arr <= 0):
        raise ValueError("geometric_mean requires positive values")
    return float(np.exp(np.mean(np.log(arr))))


def running_sum(carry: float, terms: np.ndarray) -> np.ndarray:
    """``carry, carry + t0, (carry + t0) + t1, ...``: the totals a ``+=``
    loop passes through. ``accumulate`` adds strictly left to right, so
    fractional terms round exactly as they do in such a loop — the
    contract every batched counter is held to against its per-event
    oracle."""
    out = np.empty(terms.size + 1)
    out[0] = carry
    out[1:] = terms
    return np.add.accumulate(out, out=out)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation); 0.0 when empty."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    floatfmt: str = ".3f",
) -> str:
    """Render an ASCII table; floats use ``floatfmt``, everything else ``str``."""

    def cell(v: object) -> str:
        if isinstance(v, bool):
            return str(v)
        if isinstance(v, float) or isinstance(v, np.floating):
            return format(float(v), floatfmt)
        return str(v)

    str_rows = [[cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row length does not match headers")
        widths = [max(w, len(c)) for w, c in zip(widths, row)]
    sep = "-+-".join("-" * w for w in widths)
    out = [" | ".join(h.ljust(w) for h, w in zip(headers, widths)), sep]
    out.extend(" | ".join(c.ljust(w) for c, w in zip(row, widths)) for row in str_rows)
    return "\n".join(out)


def from_fields(cls: type, payload: object, where: str,
                keys: Mapping[str, str] | None = None) -> typing.Any:
    """Rebuild dataclass ``cls`` from a ``to_payload`` dict.

    Each field is read from its key (``keys`` renames one) and checked
    against the field's annotation: ``X | None``, nested dataclasses,
    ``list`` / ``tuple`` / ``dict`` of those, and plain types (an ``int``
    passes for ``float``, a ``bool`` passes only for ``bool``). Keys that
    are not fields (derived values a writer adds) are ignored. A missing
    or mistyped field raises ``ValueError`` naming ``where``.
    """
    if not isinstance(payload, Mapping):
        raise ValueError(
            f"{where}: expected an object, got {type(payload).__name__}"
        )
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for f in dataclasses.fields(cls):
        key = (keys or {}).get(f.name, f.name)
        if key not in payload:
            raise ValueError(f"{where}: missing {key!r}")
        kwargs[f.name] = _typed(hints[f.name], payload[key], f"{where}.{key}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def _typed(tp: typing.Any, value: object, where: str) -> object:
    """``value`` checked against annotation ``tp`` (see :func:`from_fields`)."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:
        if value is None and type(None) in args:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return _typed(tp, value, where)
    if dataclasses.is_dataclass(tp):
        return from_fields(tp, value, where)
    if origin in (list, tuple) and isinstance(value, (list, tuple)):
        return origin(_typed(args[0], v, f"{where}[{i}]")
                      for i, v in enumerate(value))
    if origin is dict and isinstance(value, Mapping):
        return {_typed(args[0], k, where): _typed(args[1], v, f"{where}.{k}")
                for k, v in value.items()}
    want = (int, float) if tp is float else origin or tp
    if isinstance(value, want) and (tp is bool or not isinstance(value, bool)):
        return value
    raise ValueError(
        f"{where}: expected {getattr(tp, '__name__', tp)}, "
        f"got {type(value).__name__}"
    )
