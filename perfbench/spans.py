"""In-memory span recorder for the traced run, kept apart from ``repro.obs``.

The benchmark must not time the program with the program's own tracer:
a later PR that rewrites ``repro.obs`` would then move the ruler together
with the thing measured. Spans are recorded around perfbench's own calls
into each layer, held in memory, and written once at exit as a Chrome
trace-event document (load it at https://ui.perfetto.dev).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


class SpanRecorder:
    """Nested wall-clock spans: ``name, start_ns, end_ns, parent, op_id, workload``.

    ``on_path=False`` marks a span that repeats work already inside a
    sibling (a stand-alone cache replay of a trace that ``simulate`` just
    walked): it is timed for its own layer row but is not part of the
    op's blocking steps, so it is left out of ``bench.layer_sum_frac``.

    Timestamps stay raw; ``scale_op`` attaches the host-speed factor measured
    beside an op, and every duration read back is in reference-host seconds.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op_id: int | None = None

    @contextmanager
    def span(
        self, name: str, *, op_id: int | None = None, on_path: bool = True
    ) -> Iterator[dict]:
        if op_id is not None:
            self._op_id = op_id
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op_id": self._op_id,
            "workload": self.workload,
            "on_path": on_path,
            "scale": 1.0,
            "start_ns": 0,
            "end_ns": 0,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start_ns"] = time.perf_counter_ns()
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def scale_op(self, op_id: int, factor: float) -> None:
        for s in reversed(self.spans):
            if s["op_id"] != op_id:
                break
            s["scale"] = factor

    # -- views -----------------------------------------------------------
    @staticmethod
    def duration(span: dict) -> float:
        return (span["end_ns"] - span["start_ns"]) / 1e9 * span["scale"]

    def seconds(self, name: str) -> list[float]:
        """Durations of every span called ``name``, in recording order."""
        return [self.duration(s) for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.seconds(name))

    def roots(self) -> list[dict]:
        return [s for s in self.spans if s["parent"] is None]

    def on_path_by_root(self) -> list[float]:
        """Per root span, in order: seconds its on-path children cover."""
        covered = {s["id"]: 0.0 for s in self.roots()}
        for s in self.spans:
            if s["parent"] in covered and s["on_path"]:
                covered[s["parent"]] += self.duration(s)
        return list(covered.values())

    # -- export ----------------------------------------------------------
    def chrome_trace(self) -> dict:
        events = [
            {
                "name": s["name"],
                "ph": "X",
                "ts": s["start_ns"] / 1000.0,
                "dur": (s["end_ns"] - s["start_ns"]) / 1000.0,
                "pid": 1,
                "tid": 0,
                "args": {
                    "id": s["id"],
                    "parent": s["parent"],
                    "op_id": s["op_id"],
                    "workload": s["workload"],
                    "on_path": s["on_path"],
                    "scale": s["scale"],
                },
            }
            for s in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)
