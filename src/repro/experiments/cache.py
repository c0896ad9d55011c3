"""Persistent on-disk result store for the sweep engine.

The paper's §III-C characterization sweeps 816 crf x refs combinations
per video — by far the most expensive code path in this reproduction.
Every profiled point is deterministic given its inputs, so completed
points are stored on disk keyed by a content hash of everything that can
change the result: the repro version, the full
:class:`~repro.codec.options.EncoderOptions`, the video spec (name and
proxy geometry), the simulation knobs (sample rate, data-capacity
scale), and the microarchitecture configuration. Repeat runs — across
processes, not just within one — then cost one JSON read per point, whose
22 counters are one base64 block of float64s: no decimal to parse.

Design points:

- **Content-hashed keys.** :func:`content_key` hashes compact JSON with
  sorted keys, a dataclass written as one tagged list of values,
  ``{"QualName(<sorted field names>)": [values in that order]}``. Keys
  ignore dict insertion and field declaration order, change with any
  value, field name or class name, and keep ``48`` / ``48.0`` apart.
  :class:`FixedComponentKey` builds the same key, byte for byte, with one
  component serialized once per process (the sweep's µarch configuration).
  Schema 3 changed every key: an existing cache directory pays one cold
  run, and ``repro cache clear`` drops its unreachable entries.
- **Atomic writes.** Entries are written to a temp file in the target
  directory and ``os.replace``-d into place, so a crashed or concurrent
  writer can never leave a half-written entry behind.
- **Corruption tolerance + quarantine.** A truncated or garbled entry
  is treated as a miss (the point is recomputed and rewritten), never
  as an error — and the damaged file is moved aside to
  ``<name>.corrupt`` so it can be inspected and counted by
  ``repro cache stats`` instead of being silently overwritten. Bytes
  that are not UTF-8, a ``NaN`` / ``Infinity`` literal (the writer
  refuses non-finite numbers), an envelope naming another key (a file
  copied or renamed into place) and a sweep payload the reader refuses
  (a coerced field, a bad counter block, a non-finite counter) are
  damage too. Entries written under a different schema version are
  plain misses (expected drift, not damage).
- **Retried I/O.** Reads and writes run under the engine's
  :class:`~repro.resilience.retry.RetryPolicy`, so transient I/O errors
  (including injected ``cache.read`` / ``cache.write`` faults) are
  retried with backoff; a read that exhausts its budget degrades to a
  miss, and a write that exhausts its budget raises ``OSError`` for the
  caller to absorb.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

from repro import resilience
from repro._util import atomic_write_text
from repro.obs import session as obs
from repro.profiling.counters import CounterSet
from repro.resilience.faults import InjectedFault, fault_point

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheStats",
    "FixedComponentKey",
    "ResultCache",
    "SweepRecord",
    "canonical_json",
    "content_key",
    "default_cache_dir",
    "record_from_payload",
    "record_to_payload",
]

#: Bump to invalidate every cache entry (keys embed it): on a change to the key's
#: text, or to ``CounterSet``'s fields (a sweep entry stores them by position).
CACHE_SCHEMA_VERSION = 3


@dataclass(frozen=True)
class SweepRecord:
    """One profiled point of a sweep."""

    video: str
    crf: int
    refs: int
    preset: str
    counters: CounterSet

    def as_row(self) -> dict[str, float | int | str]:
        row: dict[str, float | int | str] = {
            "video": self.video,
            "crf": self.crf,
            "refs": self.refs,
            "preset": self.preset,
        }
        row.update(self.counters.as_dict())
        return row


# ----------------------------------------------------------------------
# Canonical serialization and content-hashed keys.
# ----------------------------------------------------------------------

#: Per dataclass type, read once: its tag, ``QualName(<sorted field names>)``,
#: and a getter of its values in that order. The C encoder pays per dict key:
#: ``EncoderOptions`` as a dict of 20 names costs ~3x the list of its values.
_FIELD_NAMES: dict[type, tuple] = {}


def _jsonable(obj: object) -> object:
    cls = type(obj)
    tagged = _FIELD_NAMES.get(cls)
    if tagged is None:
        if not dataclasses.is_dataclass(cls):
            raise TypeError(f"cannot canonicalize {cls.__name__} for a cache key")
        names = sorted(f.name for f in dataclasses.fields(cls))
        get = attrgetter(*names) if len(names) > 1 else lambda o: [getattr(o, n) for n in names]
        tagged = _FIELD_NAMES[cls] = (f"{cls.__qualname__}({','.join(names)})", get)
    tag, values = tagged
    return {tag: values(obj)}


def canonical_json(payload: object) -> str:
    """Order-independent JSON: sorted keys, compact separators, and a dataclass
    as ``{"QualName(a,b)": [a, b]}``, names sorted (so reordering its field
    declarations cannot change a key; renaming a field or the class does)."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=_jsonable
    )


def content_key(kind: str, **components: object) -> str:
    """SHA-256 over the canonical JSON of ``components`` plus the repro
    version and cache schema version."""
    import repro

    payload = {
        "kind": kind,
        "cache_schema": CACHE_SCHEMA_VERSION,
        "repro_version": repro.__version__,
        "components": components,
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


class FixedComponentKey:
    """:func:`content_key` with one component serialized once.

    ``FixedComponentKey(kind, name, value)(**rest)`` is
    ``content_key(kind, **{name: value}, **rest)`` byte for byte — the same
    canonical text through one ``sha256`` — but ``value`` is serialized
    here, once, instead of on every key, so it must not change afterwards.
    The text is composed in sorted key order, so ``name`` must sort before
    every name in ``rest``.
    """

    def __init__(self, kind: str, name: str, value: object) -> None:
        import repro

        self._name = name
        # content_key's payload, keys sorted: cache_schema, components
        # (``name`` first, then ``rest``), kind, repro_version.
        self._head = (
            '{"cache_schema":' + canonical_json(CACHE_SCHEMA_VERSION)
            + ',"components":{' + canonical_json(name) + ":"
            + canonical_json(value) + ","
        )
        self._tail = (
            ',"kind":' + canonical_json(kind)
            + ',"repro_version":' + canonical_json(repro.__version__) + "}"
        )

    def __call__(self, **rest: object) -> str:
        if not rest or min(rest) <= self._name:
            raise ValueError(
                f"the other components must sort after {self._name!r}, "
                f"got {sorted(rest)}"
            )
        # '{"a":...,"b":...}' without its "{": its "}" closes the components.
        text = self._head + canonical_json(rest)[1:] + self._tail
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# SweepRecord <-> JSON payloads.
# ----------------------------------------------------------------------

#: CounterSet's fields in declaration (positional) order, read once, and the
#: sweep payload's counter block: their values as little-endian float64s.
_COUNTER_NAMES = tuple(CounterSet.field_names())
_COUNTERS = struct.Struct(f"<{len(_COUNTER_NAMES)}d")


def record_to_payload(record: SweepRecord) -> dict[str, object]:
    """JSON-serializable payload for one :class:`SweepRecord`; raises
    ``ValueError`` if a counter is not finite."""
    values = [getattr(record.counters, name) for name in _COUNTER_NAMES]
    block = _COUNTERS.pack(*values)
    if not all(map(math.isfinite, values)):
        raise ValueError("every counter must be finite")
    return {
        "video": record.video,
        "crf": record.crf,
        "refs": record.refs,
        "preset": record.preset,
        "counters": base64.b64encode(block).decode("ascii"),
    }


def record_from_payload(payload: dict[str, object]) -> SweepRecord:
    """Rebuild a :class:`SweepRecord`; raises ``ValueError``/``KeyError``/
    ``TypeError`` on any shape mismatch (callers treat that as damage).

    Nothing is coerced: ``crf`` / ``refs`` must be ``int`` (not ``bool``),
    ``video`` / ``preset`` ``str``, and ``counters`` a base64 block of
    exactly one finite float64 per counter."""
    video, crf, refs, preset = (
        payload["video"], payload["crf"], payload["refs"], payload["preset"]
    )
    if type(crf) is not int or type(refs) is not int:
        raise TypeError(f"crf and refs must be ints, got {crf!r} and {refs!r}")
    if type(video) is not str or type(preset) is not str:
        raise TypeError(
            f"video and preset must be strings, got {video!r} and {preset!r}"
        )
    block = base64.b64decode(payload["counters"], validate=True)
    if len(block) != _COUNTERS.size:
        raise ValueError(f"a counter block of {len(block)} bytes, not {_COUNTERS.size}")
    values = _COUNTERS.unpack(block)
    if not all(map(math.isfinite, values)):
        raise ValueError("every counter must be finite")
    return SweepRecord(video, crf, refs, preset, CounterSet._from_values(values))


# ----------------------------------------------------------------------
# The on-disk store.
# ----------------------------------------------------------------------

def default_cache_dir() -> Path:
    """Where ``repro cache`` looks when no directory is configured:
    ``$XDG_CACHE_HOME/repro/sweeps``, else ``~/.cache/repro/sweeps``."""
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "sweeps"


def _refuse_constant(name: str) -> float:
    raise ValueError(f"non-finite number {name} in a cache entry")


#: How :meth:`ResultCache.get_value` opens an entry (then reads it to EOF).
_O_READ = os.O_RDONLY | getattr(os, "O_BINARY", 0)

#: Parses entries as :meth:`ResultCache.put_value` writes them: with no
#: ``NaN`` / ``Infinity`` literal, so one on disk is damage.
_ENTRY_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


@dataclass(frozen=True)
class CacheStats:
    root: Path
    entries: int
    total_bytes: int
    corrupt: int = 0

    def render(self) -> str:
        return (
            f"cache root : {self.root}\n"
            f"entries    : {self.entries}\n"
            f"total size : {self.total_bytes / 1024.0:.1f} KiB\n"
            f"corrupt    : {self.corrupt} quarantined"
        )


class ResultCache:
    """One directory of content-addressed JSON entries.

    Entries live at ``root/<key[:2]>/<key>.json`` wrapped in a small
    envelope carrying the schema version and the key. :meth:`get_value` /
    :meth:`put_value` move arbitrary JSON payloads; :meth:`get_record` /
    :meth:`put_record` add the :class:`SweepRecord` serde on top.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _quarantine(self, path: str | Path) -> None:
        """Move a damaged entry aside to ``<name>.corrupt`` (replacing
        any previous quarantine of the same key) so corruption is
        visible in ``repro cache stats`` rather than silently erased."""
        try:
            os.replace(path, os.path.splitext(path)[0] + ".corrupt")
        except OSError:
            return
        obs.inc("cache.quarantined")

    # -- raw JSON payloads ---------------------------------------------
    def get_value(self, key: str) -> object | None:
        """The stored payload, or ``None`` on any miss, truncation,
        corruption, schema mismatch, or entry written under another key.

        The read is retried under the engine's retry policy; a corrupt
        entry is quarantined to ``<name>.corrupt`` before reporting the
        miss."""
        # A str path and a raw read: this runs on every warm cell, and a
        # buffered ``open`` cost three times ``os.open`` / ``os.read``.
        path = os.path.join(self.root, key[:2], key + ".json")

        def _read() -> bytes | None:
            fault_point("cache.read", detail=key)
            try:
                fd = os.open(path, _O_READ)
            except FileNotFoundError:
                return None
            chunks = []
            try:
                while chunk := os.read(fd, 1 << 16):
                    chunks.append(chunk)
            finally:
                os.close(fd)
            return b"".join(chunks)

        try:
            data = resilience.call_with_retry(
                _read,
                policy=resilience.retry_policy(),
                token=key,
                label="cache.read",
            )
        except (OSError, TimeoutError, ConnectionError, InjectedFault):
            obs.inc("cache.read_giveups")
            return None
        if data is None:
            return None
        try:
            envelope = _ENTRY_DECODER.decode(data.decode("utf-8"))
        except ValueError:  # not UTF-8, not JSON, or a NaN / Infinity literal
            self._quarantine(path)
            return None
        if not isinstance(envelope, dict) or "payload" not in envelope:
            self._quarantine(path)
            return None
        if envelope.get("cache_schema") != CACHE_SCHEMA_VERSION:
            return None  # expected schema drift, not damage
        if envelope.get("key") != key:
            self._quarantine(path)  # another key's entry, copied or renamed here
            return None
        return envelope["payload"]

    def put_value(self, key: str, payload: object, *, kind: str = "value") -> Path:
        """Atomically write ``payload`` under ``key`` and return its path.

        Raises ``ValueError`` naming the key if the payload holds a
        non-finite number (JSON has none; it would read back as damage).
        Retried under the engine's retry policy; raises ``OSError`` (or
        the injected fault) once the budget is exhausted."""
        import repro

        path = self.path_for(key)
        try:
            text = json.dumps({
                "cache_schema": CACHE_SCHEMA_VERSION,
                "repro_version": repro.__version__,
                "kind": kind,
                "key": key,
                "payload": payload,
            }, allow_nan=False)
        except ValueError as exc:
            raise ValueError(f"cache entry {key}: {exc}") from None

        def _write() -> Path:
            fault_point("cache.write", detail=key)
            return atomic_write_text(path, text)

        return resilience.call_with_retry(
            _write,
            policy=resilience.retry_policy(),
            token=key,
            label="cache.write",
        )

    # -- SweepRecord entries -------------------------------------------
    def get_record(self, key: str) -> SweepRecord | None:
        """As :meth:`get_value`; a payload the reader refuses is damage."""
        payload = self.get_value(key)
        if payload is None:
            return None
        try:
            return record_from_payload(payload)
        except (KeyError, TypeError, ValueError):
            self._quarantine(self.path_for(key))
            return None

    def put_record(self, key: str, record: SweepRecord) -> Path:
        """As :meth:`put_value`, which a non-finite counter fails too."""
        try:
            payload = record_to_payload(record)
        except ValueError as exc:
            raise ValueError(f"cache entry {key}: {exc}") from None
        return self.put_value(key, payload, kind="sweep")

    # -- maintenance ----------------------------------------------------
    def _entry_paths(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*/*.json"))

    def _corrupt_paths(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*/*.corrupt"))

    def stats(self) -> CacheStats:
        paths = self._entry_paths()
        total = 0
        for path in paths:
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return CacheStats(
            root=self.root,
            entries=len(paths),
            total_bytes=total,
            corrupt=len(self._corrupt_paths()),
        )

    def clear(self) -> int:
        """Delete every entry (quarantined files included); returns how
        many live entries were removed."""
        for path in self._corrupt_paths():
            try:
                path.unlink()
            except OSError:
                pass
        removed = 0
        for path in self._entry_paths():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for subdir in sorted(self.root.glob("*/")):
            try:
                subdir.rmdir()
            except OSError:
                pass
        return removed
