"""Metrics registry: counters, gauges, and fixed-bucket histograms.

This is the aggregation side of the telemetry subsystem — the place the
pipeline's previously ad-hoc numbers land: encoder kernel invocation
counts, simulator cache/branch event totals, scheduler queue depths,
tracer heap bytes. Everything is plain Python floats and dicts so a
registry snapshot serializes straight into ``run.json``.

Histograms use fixed bucket bounds (default: log-spaced decades with
1-2-5 subdivision, covering nanoseconds-to-hours and bytes-to-GiB-scale
magnitudes) and estimate percentiles by linear interpolation inside the
bucket containing the requested rank — the classic Prometheus-style
scheme, with exact min/max tracked alongside so the interpolation is
clamped to observed values. Service-latency histograms should use the
tighter :func:`latency_buckets` preset (µs → minutes), which keeps the
interpolation error sub-bucket at serving timescales.

Every metric kind optionally carries a **label dimension**: a small
``{key: value}`` string map identifying one series of a metric family
(``service.stage_latency_s{config="fe_op",stage="encode"}``). Labeled
series are stored, snapshotted, exported, and merged under their
Prometheus-style labeled key, so ``run.json`` and the worker→parent
merge path handle them with no schema change.
"""

from __future__ import annotations

import math

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "default_buckets", "label_key", "latency_buckets",
           "parse_label_key"]


def default_buckets() -> tuple[float, ...]:
    """Log-spaced 1-2-5 bucket upper bounds from 1e-9 up to 1e9."""
    bounds: list[float] = []
    for exp in range(-9, 10):
        for mant in (1.0, 2.0, 5.0):
            bounds.append(mant * 10.0 ** exp)
    return tuple(bounds)


def latency_buckets() -> tuple[float, ...]:
    """Log-spaced 1-2-5 bucket upper bounds from 1 µs up to ~8 minutes.

    The :func:`default_buckets` decade grid spans 18 orders of magnitude,
    which leaves sub-second service latencies only ~3 buckets per decade
    over the whole range it will realistically see — too coarse for
    percentile targets at serving granularity. This preset covers the
    serving range (microseconds to minutes) with the same 1-2-5
    subdivision, so every stage-latency histogram resolves p99s at the
    scale SLOs are written in.
    """
    bounds: list[float] = []
    for exp in range(-6, 3):
        for mant in (1.0, 2.0, 5.0):
            bounds.append(mant * 10.0 ** exp)
    return tuple(bounds)


_DEFAULT_BUCKETS = default_buckets()


# ----------------------------------------------------------------------
# Labeled series keys (Prometheus-style).
# ----------------------------------------------------------------------

def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _unescape_label_value(value: str) -> str:
    return (value.replace("\\n", "\n").replace('\\"', '"')
            .replace("\\\\", "\\"))


def label_key(name: str, labels: dict[str, str] | None = None) -> str:
    """The canonical series key for ``name`` + ``labels``.

    Unlabeled metrics keep their bare name; labeled ones get the
    Prometheus form ``name{k="v",...}`` with keys sorted, so the same
    label set always maps to the same series regardless of call-site
    ordering.
    """
    if not labels:
        return name
    inner = ",".join(
        f'{k}="{_escape_label_value(str(v))}"' for k, v in sorted(labels.items())
    )
    return f"{name}{{{inner}}}"


def parse_label_key(key: str) -> tuple[str, dict[str, str]]:
    """Invert :func:`label_key`: split a series key into (name, labels)."""
    if "{" not in key:
        return key, {}
    name, _, rest = key.partition("{")
    if not rest.endswith("}"):
        raise ValueError(f"malformed label key {key!r}")
    labels: dict[str, str] = {}
    body = rest[:-1]
    i = 0
    while i < len(body):
        eq = body.index("=", i)
        label = body[i:eq]
        if body[eq + 1] != '"':
            raise ValueError(f"malformed label key {key!r}")
        j = eq + 2
        raw = []
        while j < len(body):
            ch = body[j]
            if ch == "\\":
                raw.append(body[j:j + 2])
                j += 2
                continue
            if ch == '"':
                break
            raw.append(ch)
            j += 1
        else:
            raise ValueError(f"malformed label key {key!r}")
        labels[label] = _unescape_label_value("".join(raw))
        i = j + 1
        if i < len(body):
            if body[i] != ",":
                raise ValueError(f"malformed label key {key!r}")
            i += 1
    return name, labels


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value", "labels")

    def __init__(self, name: str,
                 labels: dict[str, str] | None = None) -> None:
        self.name = name
        self.labels = dict(labels) if labels else {}
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {n})")
        self.value += n

    def snapshot(self) -> float:
        return self.value


class Gauge:
    """Last-written value (queue depth, heap bytes, config knobs)."""

    __slots__ = ("name", "value", "labels")

    def __init__(self, name: str,
                 labels: dict[str, str] | None = None) -> None:
        self.name = name
        self.labels = dict(labels) if labels else {}
        self.value = 0.0

    def set(self, v: float) -> None:
        self.value = float(v)

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """Fixed-bucket histogram with interpolated percentiles.

    ``bounds`` are inclusive upper bucket edges; one overflow bucket
    catches everything above the last edge. Exact count/sum/min/max are
    kept alongside the bucket counts.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total",
                 "min", "max", "labels")

    def __init__(self, name: str, bounds: tuple[float, ...] | None = None,
                 labels: dict[str, str] | None = None):
        edges = tuple(bounds) if bounds is not None else _DEFAULT_BUCKETS
        if not edges:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b >= a for b, a in zip(edges, edges[1:])):
            raise ValueError("histogram bounds must be strictly increasing")
        self.name = name
        self.labels = dict(labels) if labels else {}
        self.bounds = edges
        self.bucket_counts = [0.0] * (len(edges) + 1)  # + overflow
        self.count = 0.0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, v: float, weight: float = 1.0) -> None:
        v = float(v)
        self.count += weight
        self.total += v * weight
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        self.bucket_counts[self._bucket_index(v)] += weight

    def _bucket_index(self, v: float) -> int:
        # Binary search over the inclusive upper edges.
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if v <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Estimate the ``p``-th percentile (p in [0, 100])."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if self.count == 0:
            return 0.0
        rank = p / 100.0 * self.count
        cum = 0.0
        for i, n in enumerate(self.bucket_counts):
            if n == 0:
                continue
            if cum + n >= rank:
                # Interpolate inside bucket i, clamped to observed range.
                lower = self.bounds[i - 1] if i > 0 else min(self.min, self.bounds[0])
                upper = self.bounds[i] if i < len(self.bounds) else self.max
                lower = max(lower, self.min)
                upper = min(upper, self.max)
                if upper <= lower:
                    return lower
                frac = (rank - cum) / n
                return lower + frac * (upper - lower)
            cum += n
        return self.max

    def snapshot(self) -> dict[str, float]:
        if self.count == 0:
            return {"count": 0.0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }

    def export_state(self) -> dict[str, object]:
        """Full mergeable state (unlike :meth:`snapshot`, which only
        summarizes): bucket counts plus exact count/sum/min/max."""
        state: dict[str, object] = {
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.total,
        }
        if self.labels:
            state["labels"] = dict(self.labels)
        if self.count:
            state["min"] = self.min
            state["max"] = self.max
        return state

    def merge_state(self, state: dict[str, object]) -> None:
        """Fold another histogram's exported state into this one."""
        if tuple(state["bounds"]) != self.bounds:  # type: ignore[arg-type]
            raise ValueError(
                f"histogram {self.name!r}: cannot merge mismatched bucket bounds"
            )
        if not state["count"]:
            return
        other_counts: list[float] = state["bucket_counts"]  # type: ignore[assignment]
        if len(other_counts) != len(self.bucket_counts):
            raise ValueError(
                f"histogram {self.name!r}: bucket count length mismatch"
            )
        for i, n in enumerate(other_counts):
            self.bucket_counts[i] += n
        self.count += state["count"]  # type: ignore[operator]
        self.total += state["sum"]  # type: ignore[operator]
        self.min = min(self.min, float(state["min"]))  # type: ignore[arg-type]
        self.max = max(self.max, float(state["max"]))  # type: ignore[arg-type]


class MetricsRegistry:
    """Series-key → metric map with get-or-create accessors.

    Unlabeled metrics are keyed by their bare name (the historical
    behaviour); labeled series are keyed by :func:`label_key`, so one
    metric family fans out into one entry per label combination.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, key: str, cls, factory):
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory()
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {key!r} is a {type(metric).__name__}, "
                f"not a {cls.__name__}"
            )
        return metric

    def counter(self, name: str,
                labels: dict[str, str] | None = None) -> Counter:
        key = label_key(name, labels)
        return self._get(key, Counter, lambda: Counter(name, labels))

    def gauge(self, name: str,
              labels: dict[str, str] | None = None) -> Gauge:
        key = label_key(name, labels)
        return self._get(key, Gauge, lambda: Gauge(name, labels))

    def histogram(self, name: str,
                  bounds: tuple[float, ...] | None = None,
                  labels: dict[str, str] | None = None) -> Histogram:
        key = label_key(name, labels)
        return self._get(key, Histogram,
                         lambda: Histogram(name, bounds, labels))

    def series(self, name: str) -> list[Counter | Gauge | Histogram]:
        """Every series of the metric family ``name`` (labeled and not),
        in sorted series-key order."""
        return [self._metrics[key] for key in sorted(self._metrics)
                if self._metrics[key].name == name]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def as_dict(self) -> dict[str, object]:
        """Snapshot every metric: scalars for counters/gauges, summary
        dicts for histograms. Sorted by name for stable artifacts."""
        return {name: self._metrics[name].snapshot()
                for name in sorted(self._metrics)}

    # -- cross-process merge (the sweep engine's worker -> parent path) --
    def export_state(self) -> dict[str, object]:
        """Everything needed to fold this registry into another one:
        counter/gauge scalars plus full histogram states."""
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict[str, object]] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                counters[name] = metric.value
            elif isinstance(metric, Gauge):
                gauges[name] = metric.value
            else:
                histograms[name] = metric.export_state()
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    def merge_state(self, state: dict[str, object]) -> None:
        """Fold an :meth:`export_state` payload (typically from a worker
        process) into this registry: counters add, gauges last-write-win,
        histograms merge bucket-by-bucket. Labeled series round-trip
        through their series keys."""
        for key, value in state.get("counters", {}).items():  # type: ignore[union-attr]
            name, labels = parse_label_key(key)
            self.counter(name, labels or None).inc(value)
        for key, value in state.get("gauges", {}).items():  # type: ignore[union-attr]
            name, labels = parse_label_key(key)
            self.gauge(name, labels or None).set(value)
        for key, hist_state in state.get("histograms", {}).items():  # type: ignore[union-attr]
            name, labels = parse_label_key(key)
            bounds = tuple(hist_state["bounds"])
            self.histogram(name, bounds, labels or None).merge_state(hist_state)
