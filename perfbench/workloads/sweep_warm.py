"""``sweep_warm``: warm sweep cells, the reads beside ``profile_grid``'s writes.

Each timed call is a fresh ``SweepRunner`` resolving the crf x refs grid, the
preset ladder and the per-video series (50 lookups) from a cache directory
that set-up filled by running the same three sweeps cold at a tiny scale.
What runs is ``PointSpec.cache_key`` hashing, ``ResultCache.get_record``,
record decoding and runner glue. No codec, no uarch: a cache-layer change
that speeds stores but slows loads shows here and nowhere else.
"""

from __future__ import annotations

import random

from perfbench.spans import SpanRecorder
from repro.codec.presets import preset_options
from repro.experiments.cache import ResultCache
from repro.experiments.runner import QUICK, PointSpec, SweepRunner

SWEEPS = ("crf_refs_sweep", "preset_sweep", "video_sweep")
TRACE_CALLS = 40


class Workload:
    name = "sweep_warm"

    def setup(self, seed: int, smoke: bool, tmp) -> None:
        self.trace_passes = 5 if smoke else TRACE_CALLS
        self.scale = QUICK.with_updates(name="warmseed", width=32, height=32, n_frames=2)
        self.warm_dir = tmp / "warm"
        self.sweeps = list(SWEEPS)
        random.Random(seed).shuffle(self.sweeps)
        self.ops = ["resolve"]
        self.cold = self._resolve()
        self.entries = ResultCache(self.warm_dir).stats().entries
        self.first: list | None = None
        self.last: list | None = None
        # The cells as the runner keys them, for the decomposed lookups.
        self.specs = [
            PointSpec(
                scale=self.scale,
                video=r.video,
                crf=r.crf,
                refs=r.refs,
                preset=r.preset,
                options=preset_options(r.preset, crf=r.crf, refs=r.refs),
            )
            for r in self.cold
        ]

    def _resolve(self) -> list:
        runner = SweepRunner(self.scale, jobs=1, cache=ResultCache(self.warm_dir))
        return [record for name in self.sweeps for record in getattr(runner, name)()]

    def begin_pass(self) -> None:
        pass

    def call(self, op: str) -> int:
        self.last = self._resolve()
        if self.first is None:
            self.first = self.last
        return len(self.last)

    def hit_ratio(self) -> float:
        """Lookups served from ``warm_dir`` over lookups: a miss would recompute
        the cell and store it, so it shows as a new entry on disk."""
        new = ResultCache(self.warm_dir).stats().entries - self.entries
        return 1.0 - new / len(self.cold)

    def check(self) -> tuple[int, list]:
        ok = self.first == self.cold and self.last == self.cold and self.hit_ratio() == 1.0
        items = [r.as_row() for r in self.cold]
        return (0 if ok else len(self.cold)), items

    def trace_op(self, rec: SpanRecorder, op_id: int, op: str) -> None:
        cache = ResultCache(self.warm_dir)
        with rec.span("op", op_id=op_id):
            for spec, expected in zip(self.specs, self.cold):
                with rec.span("experiments.key"):
                    key = spec.cache_key()
                with rec.span("experiments.cache_get"):
                    record = cache.get_record(key)
                if record != expected:
                    raise AssertionError(f"decomposed lookup missed: {spec}")

    def trace_rows(self, rec: SpanRecorder, ops: int, whole: list[float]) -> dict:
        return {
            "experiments.key_s": rec.total("experiments.key") / ops,
            "experiments.cache_get_s": rec.total("experiments.cache_get") / ops,
            "experiments.cache_bytes": ResultCache(self.warm_dir).stats().total_bytes,
            "experiments.hit_ratio": self.hit_ratio(),
        }
