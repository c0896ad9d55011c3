"""Speedup trends across bench artifacts, with rolling-window drift.

The single-baseline gate (``repro bench --compare``) only sees two
points: the current run and one committed baseline. A sequence of small
drops — each inside the 25% ratio threshold — therefore accumulates
invisibly. This module ingests a *directory* of ``BENCH_<rev>.json``
artifacts (:mod:`repro.bench.report`), orders them by the ``timestamp``
recorded inside each payload (filename and mtime are fallbacks, never
the source of truth), and tracks every gate row
(:func:`~repro.bench.report.tracked_speedups`: ``kernel:<name>``,
``encode:fig3-slice``) across revisions.
Every series is a speedup, so "best" is the maximum.

The rolling-window detector flags a series when the **median of its
last K values** drifts more than ``drift`` below the **best value ever
recorded** — the slow-regression case the pairwise gate misses. Edge
cases are explicit: a single run is ``insufficient`` (never flagged),
all-equal runs are ``ok``, and series missing from some revisions (a
kernel added or removed) simply have gaps.

``repro bench --history DIR`` renders the trend table (sparklines per
series) and exits **5** when any series drifts — distinct from the
pairwise gate's exit 4 so CI can tell the two failure modes apart.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path

from repro._util import format_table
from repro.bench.report import load_bench, tracked_speedups

__all__ = [
    "DEFAULT_DRIFT",
    "DEFAULT_WINDOW",
    "DriftVerdict",
    "HistoryEntry",
    "TREND_SCHEMA",
    "collect_series",
    "detect_drift",
    "load_history",
    "render_trend",
    "trend_payload",
]

TREND_SCHEMA = "repro-bench-trend/v1"
DEFAULT_WINDOW = 5
DEFAULT_DRIFT = 0.10


@dataclass(frozen=True)
class HistoryEntry:
    """One ingested artifact, reduced to its tracked series."""

    path: str
    rev: str
    dirty: bool
    timestamp: float
    series: dict[str, float]


@dataclass(frozen=True)
class DriftVerdict:
    """One series' rolling-window verdict."""

    series: str
    n: int
    best: float
    last: float
    median_recent: float
    drop_frac: float  # 1 - median_recent / best
    status: str  # "ok" | "drift" | "insufficient"

    @property
    def flagged(self) -> bool:
        return self.status == "drift"

    def to_payload(self) -> dict[str, object]:
        return {
            "series": self.series,
            "n": self.n,
            "best": self.best,
            "last": self.last,
            "median_recent": self.median_recent,
            "drop_frac": self.drop_frac,
            "status": self.status,
        }


def load_history(dir_path: str | Path) -> list[HistoryEntry]:
    """Ingest every ``BENCH_*.json`` under ``dir_path``.

    Entries come back ordered by the timestamp recorded *inside* each
    payload (file mtime if it has none), so renames and copies cannot
    reorder history. Unreadable files and anything
    :func:`~repro.bench.report.load_bench` rejects raise ``ValueError``
    — a corrupt artifact in a history directory is a real problem, not
    something to skip quietly.
    """
    root = Path(dir_path)
    if not root.is_dir():
        raise ValueError(f"{root}: not a directory of bench artifacts")
    entries: list[HistoryEntry] = []
    for path in sorted(root.glob("BENCH_*.json")):
        try:
            payload = load_bench(path)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"{path}: unreadable artifact: {exc}") from None
        raw_ts = payload.get("timestamp")
        timestamp = (
            float(raw_ts) if isinstance(raw_ts, (int, float))
            else path.stat().st_mtime
        )
        entries.append(
            HistoryEntry(
                path=str(path),
                rev=str(payload.get("rev", "unknown")),
                dirty=bool(payload.get("dirty", False)),
                timestamp=timestamp,
                series=tracked_speedups(payload),
            )
        )
    entries.sort(key=lambda e: (e.timestamp, e.path))
    return entries


def collect_series(
    entries: list[HistoryEntry],
) -> dict[str, list[float | None]]:
    """Align every series over the entry sequence; ``None`` marks an
    entry that did not record that series (a gap, not a zero)."""
    names = sorted({name for e in entries for name in e.series})
    return {
        name: [e.series.get(name) for e in entries] for name in names
    }


def detect_drift(
    series: dict[str, list[float | None]],
    *,
    window: int = DEFAULT_WINDOW,
    drift: float = DEFAULT_DRIFT,
) -> list[DriftVerdict]:
    """Rolling-window verdicts: flag when median(last ``window`` values)
    falls more than ``drift`` below the best value in the history."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if not 0 < drift < 1:
        raise ValueError(f"drift must be in (0, 1), got {drift}")
    verdicts = []
    for name in sorted(series):
        values = [v for v in series[name] if v is not None]
        if len(values) < 2:
            verdicts.append(
                DriftVerdict(
                    series=name,
                    n=len(values),
                    best=values[-1] if values else 0.0,
                    last=values[-1] if values else 0.0,
                    median_recent=values[-1] if values else 0.0,
                    drop_frac=0.0,
                    status="insufficient",
                )
            )
            continue
        best = max(values)
        recent = values[-window:]
        median_recent = float(statistics.median(recent))
        drop = 1.0 - median_recent / best if best > 0 else 0.0
        verdicts.append(
            DriftVerdict(
                series=name,
                n=len(values),
                best=best,
                last=values[-1],
                median_recent=median_recent,
                drop_frac=drop,
                status="drift" if median_recent < best * (1.0 - drift)
                else "ok",
            )
        )
    return verdicts


def trend_payload(
    entries: list[HistoryEntry],
    *,
    window: int = DEFAULT_WINDOW,
    drift: float = DEFAULT_DRIFT,
) -> dict[str, object]:
    """The machine-readable trend report over an ingested history.

    JSON-ready; ``series`` values are aligned to ``entries`` order with
    ``null`` gaps, and ``verdicts`` carry the rolling-window analysis —
    the shape :func:`render_trend` renders.
    """
    series = collect_series(entries)
    verdicts = detect_drift(series, window=window, drift=drift)
    return {
        "schema": TREND_SCHEMA,
        "window": window,
        "drift": drift,
        "entries": [
            {
                "path": e.path,
                "rev": e.rev,
                "dirty": e.dirty,
                "timestamp": e.timestamp,
            }
            for e in entries
        ],
        "series": series,
        "verdicts": [v.to_payload() for v in verdicts],
    }


_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def _sparkline(values: list[float | None]) -> str:
    """Unicode sparkline; ``·`` marks gaps (series absent in a run)."""
    present = [v for v in values if v is not None]
    if not present:
        return ""
    lo, hi = min(present), max(present)
    chars = []
    for v in values:
        if v is None:
            chars.append("·")
        elif hi == lo:
            chars.append(_SPARK_BLOCKS[len(_SPARK_BLOCKS) // 2])
        else:
            idx = round((v - lo) / (hi - lo) * (len(_SPARK_BLOCKS) - 1))
            chars.append(_SPARK_BLOCKS[idx])
    return "".join(chars)


def render_trend(trend: dict[str, object]) -> str:
    """Trend table for a :func:`trend_payload` (``repro bench --history``).

    One row per tracked series: run count, sparkline over the ordered
    history, first/best/last values, the rolling-window median, and the
    verdict (``DRIFT`` when the median of the last K runs fell more than
    the drift fraction below the history's best).
    """
    entries = [e for e in trend.get("entries") or [] if isinstance(e, dict)]
    series: dict[str, list[float | None]] = trend.get("series") or {}  # type: ignore[assignment]
    verdicts = [v for v in trend.get("verdicts") or [] if isinstance(v, dict)]
    window = trend.get("window", "?")
    drift = float(trend.get("drift", 0.0))
    head = (
        f"bench history: {len(entries)} artifacts, "
        f"{len(series)} tracked series — flag when median(last {window}) "
        f"drops >{drift:.0%} below the history best"
    )
    revs = " → ".join(
        str(e.get("rev", "?")) + ("+dirty" if e.get("dirty") else "")
        for e in entries
    )
    lines = [head, f"revisions: {revs}"]
    by_name = {str(v.get("series")): v for v in verdicts}
    rows = []
    for name in sorted(series):
        values = series[name]
        present = [v for v in values if v is not None]
        v = by_name.get(name, {})
        status = str(v.get("status", "?"))
        rows.append([
            name,
            len(present),
            _sparkline(values),
            format(present[0], ".3g") if present else "-",
            format(float(v.get("best", 0.0)), ".3g"),
            format(float(v.get("last", 0.0)), ".3g"),
            format(float(v.get("median_recent", 0.0)), ".3g"),
            f"{-float(v.get('drop_frac', 0.0)):+.1%}",
            "DRIFT" if status == "drift" else status,
        ])
    lines.append(
        format_table(
            ["series", "n", "trend", "first", "best", "last",
             f"med(last {window})", "vs best", "verdict"],
            rows,
        )
    )
    drifting = [str(v.get("series")) for v in verdicts
                if v.get("status") == "drift"]
    lines.append("")
    if drifting:
        lines.append(
            f"{len(drifting)} series drifting: " + ", ".join(drifting)
        )
    else:
        lines.append("no drift beyond the rolling-window threshold")
    return "\n".join(lines)
