"""Live exposition: Prometheus text rendering + interval snapshots.

Two pieces turn the in-process :class:`~repro.obs.metrics.MetricsRegistry`
into something an external scrape/alerting stack can consume:

- :func:`render_prometheus` — the registry in Prometheus text exposition
  format (version 0.0.4): counters as ``*_total``, gauges verbatim,
  histograms as cumulative ``*_bucket{le=...}`` series plus ``*_sum`` /
  ``*_count``, with metric labels carried through. Metric names are
  sanitized (``service.queue_depth`` → ``repro_service_queue_depth``).
- :class:`MetricsSnapshotter` — a background thread that atomically
  writes ``metrics.prom`` (and, with an SLO spec, ``slo.json``) into a
  directory at a configurable interval, appending one line per tick to
  ``snapshots.jsonl``. ``repro serve --metrics-out DIR`` wraps the
  service pass in one of these, which is what the CI smoke scrapes.

The snapshotter reads the registry while the service thread writes it;
a tick that races a registry mutation is skipped and retried at the next
interval (the final flush on ``__exit__`` runs after the run finished,
so the last snapshot is always consistent and always written).
"""

from __future__ import annotations

import json
import re
import threading
import time
from pathlib import Path

from repro._util import atomic_write_text
from repro.obs.metrics import MetricsRegistry, parse_label_key

__all__ = [
    "MetricsSnapshotter",
    "render_prometheus",
    "sanitize_metric_name",
]

#: Prefix every exposed metric name, per Prometheus naming conventions.
_PREFIX = "repro_"

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str) -> str:
    """Map a dotted registry name onto a legal Prometheus metric name."""
    sanitized = _NAME_RE.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return _PREFIX + sanitized


def _fmt_labels(labels: dict[str, str], extra: str = "") -> str:
    parts = [
        f'{_NAME_RE.sub("_", k)}="{_escape(v)}"'
        for k, v in sorted(labels.items())
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _escape(value: str) -> str:
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _fmt_value(v: float) -> str:
    f = float(v)
    return repr(int(f)) if f.is_integer() else repr(f)


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format."""
    state = registry.export_state()
    lines: list[str] = []
    seen_types: set[str] = set()

    def header(family: str, kind: str) -> None:
        if family not in seen_types:
            seen_types.add(family)
            lines.append(f"# TYPE {family} {kind}")

    for key in sorted(state["counters"]):  # type: ignore[index]
        name, labels = parse_label_key(key)
        family = sanitize_metric_name(name) + "_total"
        header(family, "counter")
        lines.append(
            f"{family}{_fmt_labels(labels)} "
            f"{_fmt_value(state['counters'][key])}"  # type: ignore[index]
        )
    for key in sorted(state["gauges"]):  # type: ignore[index]
        name, labels = parse_label_key(key)
        family = sanitize_metric_name(name)
        header(family, "gauge")
        lines.append(
            f"{family}{_fmt_labels(labels)} "
            f"{_fmt_value(state['gauges'][key])}"  # type: ignore[index]
        )
    for key in sorted(state["histograms"]):  # type: ignore[index]
        hist = state["histograms"][key]  # type: ignore[index]
        name, labels = parse_label_key(key)
        family = sanitize_metric_name(name)
        header(family, "histogram")
        cumulative = 0.0
        for bound, count in zip(hist["bounds"], hist["bucket_counts"]):
            cumulative += count
            le = _fmt_labels(labels, f'le="{bound:g}"')
            lines.append(f"{family}_bucket{le} {_fmt_value(cumulative)}")
        le = _fmt_labels(labels, 'le="+Inf"')
        lines.append(f"{family}_bucket{le} {_fmt_value(hist['count'])}")
        lines.append(
            f"{family}_sum{_fmt_labels(labels)} {_fmt_value(hist['sum'])}"
        )
        lines.append(
            f"{family}_count{_fmt_labels(labels)} {_fmt_value(hist['count'])}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


class MetricsSnapshotter:
    """Periodically snapshot a registry (and SLO state) into a directory.

    Use as a context manager around the instrumented work::

        with MetricsSnapshotter(tel.metrics, "out/metrics",
                                interval_s=5.0, slo_spec=spec):
            run_service(...)

    Every ``interval_s`` seconds — and once more on exit — the thread
    writes ``metrics.prom`` (Prometheus text format) and, when a spec is
    given, ``slo.json`` (the evaluated :class:`~repro.obs.slo.SloReport`
    payload), both atomically, and appends a summary row to
    ``snapshots.jsonl``. ``interval_s <= 0`` disables the thread; only
    the exit snapshot is written.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        out_dir: str | Path,
        *,
        interval_s: float = 30.0,
        slo_spec=None,
    ) -> None:
        self.registry = registry
        self.out_dir = Path(out_dir)
        self.interval_s = float(interval_s)
        self.slo_spec = slo_spec
        self.ticks = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- one snapshot ---------------------------------------------------
    def snapshot(self) -> dict[str, object]:
        """Write one snapshot now; returns the summary row appended to
        ``snapshots.jsonl``."""
        atomic_write_text(
            self.out_dir / "metrics.prom", render_prometheus(self.registry)
        )
        row: dict[str, object] = {
            "seq": self.ticks,
            "unix": time.time(),
            "metrics": len(self.registry),
        }
        if self.slo_spec is not None:
            from repro.obs.slo import evaluate_slo

            report = evaluate_slo(self.slo_spec, self.registry.as_dict())
            atomic_write_text(
                self.out_dir / "slo.json",
                json.dumps(report.to_payload(), indent=2, sort_keys=True)
                + "\n",
            )
            row["slo_ok"] = report.ok
            row["breached"] = list(report.breached)
        with open(self.out_dir / "snapshots.jsonl", "a",
                  encoding="utf-8") as handle:
            handle.write(json.dumps(row) + "\n")
        self.ticks += 1
        return row

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.snapshot()
            except RuntimeError:
                # Raced a registry mutation mid-iteration; the next tick
                # (or the exit flush) will capture a consistent view.
                continue

    # -- lifecycle ------------------------------------------------------
    def __enter__(self) -> "MetricsSnapshotter":
        self.out_dir.mkdir(parents=True, exist_ok=True)
        if self.interval_s > 0:
            self._thread = threading.Thread(
                target=self._run, name="repro-metrics-snapshotter",
                daemon=True,
            )
            self._thread.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.snapshot()  # final, consistent flush
        return False
