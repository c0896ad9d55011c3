"""Sweep checkpoints: a manifest of completed cells, persisted next to
the result cache, so interrupted campaigns resume instead of restarting.

A manifest is keyed by a :func:`sweep_id` — a content hash over the
ordered cell cache-keys of the whole sweep — so a resumed run finds its
predecessor's manifest if and only if it is executing *the same* sweep
(same grid, same options, same µarch config, same repro version). The
manifest stores each completed cell's JSON payload inline, which makes
resume independent of the persistent result cache: a sweep checkpointed
with caching disabled still resumes.

Write discipline matches the result cache: periodic atomic
temp-file-then-``os.replace`` flushes (every ``flush_every`` completed
cells and at sweep end), so a killed worker pool or a SIGKILLed parent
can lose at most the last ``flush_every - 1`` cells of progress, never
the manifest itself.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Sequence
from pathlib import Path

from repro._util import atomic_write_text
from repro.obs import session as obs

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "SweepCheckpoint",
    "sweep_id",
]

CHECKPOINT_SCHEMA_VERSION = 1

#: Completed cells between automatic manifest flushes.
DEFAULT_FLUSH_EVERY = 8


def sweep_id(label: str, cell_keys: Sequence[str]) -> str:
    """Stable identity of one sweep: hash of its label and the ordered
    cell cache-keys (which already embed options, scale, config, and
    repro version)."""
    payload = json.dumps(
        {"label": label, "cells": list(cell_keys)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class SweepCheckpoint:
    """One sweep's progress manifest.

    ``cells`` maps cell cache-key -> result payload for completed cells;
    ``failed`` maps cell cache-key -> failure summary for cells that
    exhausted their retry budget.
    """

    def __init__(
        self,
        root: str | Path,
        sweep: str,
        *,
        label: str = "sweep",
        total: int = 0,
        flush_every: int = DEFAULT_FLUSH_EVERY,
    ) -> None:
        self.root = Path(root)
        self.sweep = sweep
        self.label = label
        self.total = total
        self.flush_every = max(int(flush_every), 1)
        self.cells: dict[str, object] = {}
        self.failed: dict[str, dict[str, object]] = {}
        self._pending = 0

    @property
    def path(self) -> Path:
        return self.root / f"{self.sweep}.json"

    # ------------------------------------------------------------------
    def load(self) -> bool:
        """Populate from an existing manifest. Returns ``True`` when a
        compatible manifest with at least one recorded cell was found;
        corruption, schema drift, or a different sweep id all read as
        "no checkpoint" (the sweep simply starts fresh)."""
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return False
        try:
            doc = json.loads(text)
        except ValueError:
            return False
        if (
            not isinstance(doc, dict)
            or doc.get("checkpoint_schema") != CHECKPOINT_SCHEMA_VERSION
            or doc.get("sweep") != self.sweep
            or not isinstance(doc.get("cells"), dict)
            or not isinstance(doc.get("failed"), dict)
        ):
            return False
        self.cells = dict(doc["cells"])
        self.failed = {
            str(k): dict(v)
            for k, v in doc["failed"].items()
            if isinstance(v, dict)
        }
        return bool(self.cells or self.failed)

    # ------------------------------------------------------------------
    def record_done(self, key: str, payload: object) -> None:
        """Record one completed cell; flushes every ``flush_every``."""
        self.cells[key] = payload
        self.failed.pop(key, None)
        self._pending += 1
        if self._pending >= self.flush_every:
            self.flush()

    def record_failed(self, key: str, info: dict[str, object]) -> None:
        """Record one permanently-failed cell (kept out of ``cells`` so
        a resume retries it)."""
        self.failed[key] = info
        self._pending += 1

    def flush(self) -> Path:
        """Atomically persist the manifest."""
        import repro

        doc = {
            "checkpoint_schema": CHECKPOINT_SCHEMA_VERSION,
            "repro_version": repro.__version__,
            "sweep": self.sweep,
            "label": self.label,
            "total": self.total,
            "cells": self.cells,
            "failed": self.failed,
        }
        atomic_write_text(self.path, json.dumps(doc))
        self._pending = 0
        obs.inc("sweep.checkpoint_writes")
        return self.path

    def discard(self) -> None:
        """Delete the manifest (the sweep completed; the result cache —
        or the results themselves — now own the data)."""
        try:
            self.path.unlink()
        except OSError:
            pass
