"""Prometheus text exposition of a metrics registry.

:func:`render_prometheus` turns the in-process
:class:`~repro.obs.metrics.MetricsRegistry` into Prometheus text
exposition format (version 0.0.4): counters as ``*_total``, gauges
verbatim, histograms as cumulative ``*_bucket{le=...}`` series plus
``*_sum`` / ``*_count``, with metric labels carried through. Metric
names are sanitized (``service.queue_depth`` →
``repro_service_queue_depth``). ``repro serve --metrics-out DIR`` writes
it once, as ``DIR/metrics.prom``, when the pass ends (see
``repro.api.facade``), which is what the CI smoke scrapes.
"""

from __future__ import annotations

import re

from repro.obs.metrics import MetricsRegistry, parse_label_key

__all__ = ["render_prometheus"]

#: Prefix every exposed metric name, per Prometheus naming conventions.
_PREFIX = "repro_"

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _sanitize_metric_name(name: str) -> str:
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
        family = _sanitize_metric_name(name) + "_total"
        header(family, "counter")
        lines.append(
            f"{family}{_fmt_labels(labels)} "
            f"{_fmt_value(state['counters'][key])}"  # type: ignore[index]
        )
    for key in sorted(state["gauges"]):  # type: ignore[index]
        name, labels = parse_label_key(key)
        family = _sanitize_metric_name(name)
        header(family, "gauge")
        lines.append(
            f"{family}{_fmt_labels(labels)} "
            f"{_fmt_value(state['gauges'][key])}"  # type: ignore[index]
        )
    for key in sorted(state["histograms"]):  # type: ignore[index]
        hist = state["histograms"][key]  # type: ignore[index]
        name, labels = parse_label_key(key)
        family = _sanitize_metric_name(name)
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

