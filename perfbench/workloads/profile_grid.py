"""``profile_grid``: cold profiled sweep cells, the researcher's cost of a figure.

video -> traced encode -> simulate -> counters -> cache store: the only
workload where every layer on the paper's path runs. The sweep clip at the
fig3 corners (crf 1 / 23 / 51 x refs 1 / 8) uses the codec differently
(entropy-heavy vs search-heavy); a second, high-entropy clip runs at (23, 3)
under two presets. A fresh runner and cache directory per pass keeps every
cell cold and stored.
"""

from __future__ import annotations

import random
import statistics
import tempfile

from perfbench.spans import SpanRecorder
from perfbench.workloads import load_clip, mean, replay_uarch, uarch_rows
from repro.codec.encoder import Encoder
from repro.codec.presets import preset_options
from repro.experiments.cache import ResultCache, SweepRecord
from repro.experiments.runner import QUICK, PointSpec, SweepRunner
from repro.obs import telemetry_session
from repro.profiling.counters import CounterSet
from repro.trace.kernels import build_program
from repro.trace.recorder import RecordingTracer
from repro.uarch.configs import baseline_config
from repro.uarch.simulator import simulate

CELLS = tuple(
    (QUICK.sweep_video, crf, refs, "medium") for crf in (1, 23, 51) for refs in (1, 8)
) + (("holi", 23, 3, "medium"), ("holi", 23, 3, "veryfast"))
SMOKE_CELLS = ((QUICK.sweep_video, 23, 1, "medium"), ("holi", 23, 3, "veryfast"))


def _spec(op: tuple) -> PointSpec:
    video, crf, refs, preset = op
    return PointSpec(
        scale=QUICK,
        video=video,
        crf=crf,
        refs=refs,
        preset=preset,
        options=preset_options(preset, crf=crf, refs=refs),
    )


class Workload:
    name = "profile_grid"
    trace_passes = 1

    def setup(self, seed: int, smoke: bool, tmp) -> None:
        self.tmp = tmp
        self.ops = list(SMOKE_CELLS if smoke else CELLS)
        random.Random(seed).shuffle(self.ops)
        self.passes: list[dict[tuple, SweepRecord]] = []
        self.cache: ResultCache | None = None
        # Traced-run state: the decomposed ops store into their own cold cache,
        # and a third runner repeats each op under a telemetry session.
        self.cfg = baseline_config().with_updates(
            data_capacity_scale=QUICK.data_capacity_scale
        )
        self.traced_cache = self._fresh_cache()
        self.obs_runner = SweepRunner(QUICK, jobs=1, cache=self._fresh_cache())
        self.clips: dict[str, object] = {}
        self.plain: dict[tuple, dict] = {}
        self.counts = dict.fromkeys(
            ("stream_bytes", "kernel_calls", "events", "instructions", "addrs", "cycles"),
            0,
        )

    def _fresh_cache(self) -> ResultCache:
        return ResultCache(tempfile.mkdtemp(prefix="grid-", dir=self.tmp))

    def begin_pass(self) -> None:
        self.cache = self._fresh_cache()
        self.runner = SweepRunner(QUICK, jobs=1, cache=self.cache)
        self.passes.append({})

    def call(self, op: tuple) -> int:
        video, crf, refs, preset = op
        record = self.runner.profile(video, crf=crf, refs=refs, preset=preset)
        self.passes[-1][op] = record
        return 1

    def check(self) -> tuple[int, list]:
        failed = 0
        first, last = self.passes[0], self.passes[-1]
        for records in self.passes:
            for op, record in records.items():
                ok = record == first.get(op, record) and _slots_conserved(record.counters)
                if records is last:  # its cache directory is the one still bound
                    ok = ok and self.cache.get_record(_spec(op).cache_key()) == record
                failed += not ok
        items = [[*op, first[op].counters.as_dict()] for op in sorted(first)]
        return failed, items

    def trace_op(self, rec: SpanRecorder, op_id: int, op: tuple) -> None:
        spec = _spec(op)
        counts = self.counts
        with rec.span("op", op_id=op_id):
            if spec.video not in self.clips:
                with rec.span("video.load"):
                    self.clips[spec.video] = load_clip(spec.video, QUICK)
            video = self.clips[spec.video]
            # The untraced encode is off the op's path: the real op encodes
            # once, under the tracer. It exists to split that one encode
            # into codec.encode_s + trace.record_s.
            with rec.span("codec.encode", on_path=False) as plain:
                Encoder(spec.options).encode(video)
            self.plain[op] = plain
            with rec.span("codec.encode_traced"):
                program = build_program()
                tracer = RecordingTracer(program, sample=QUICK.sample)
                encoded = Encoder(spec.options, tracer=tracer).encode(video)
            stream = tracer.stream
            with rec.span("uarch.simulate.baseline"):
                report = simulate(stream, program, self.cfg)
            counts["addrs"] += replay_uarch(rec, stream, program, self.cfg)
            with rec.span("profiling.counters"):
                counters = CounterSet.from_report(
                    report, psnr_db=encoded.psnr_db, bitrate_kbps=encoded.bitrate_kbps
                )
                record = SweepRecord(spec.video, spec.crf, spec.refs, spec.preset, counters)
            with rec.span("experiments.key"):
                key = spec.cache_key()
            with rec.span("experiments.cache_put"):
                self.traced_cache.put_record(key, record)
            with rec.span("experiments.cache_get", on_path=False):
                self.traced_cache.get_record(key)
            name, crf, refs, preset = op
            with telemetry_session(), rec.span("obs.whole_op", on_path=False):
                self.obs_runner.profile(name, crf=crf, refs=refs, preset=preset)
        counts["stream_bytes"] += len(encoded.stream.bitstream)
        counts["kernel_calls"] += sum(stream.kernel_calls.values())
        counts["events"] += len(stream.events)
        counts["instructions"] += stream.total_instructions
        counts["cycles"] += report.cycles

    def trace_rows(self, rec: SpanRecorder, ops: int, whole: list[float]) -> dict:
        counts = self.counts
        encode = rec.total("codec.encode")
        rows = {
            "video.load_s": mean(rec.seconds("video.load")),
            "codec.encode_s": encode / ops,
            "codec.encode_frames_per_s": ops * QUICK.n_frames / encode,
            "codec.stream_bytes": counts["stream_bytes"],
            "codec.kernel_calls": counts["kernel_calls"],
            "trace.record_s": (rec.total("codec.encode_traced") - encode) / ops,
            "trace.events": counts["events"],
            "trace.instructions": counts["instructions"],
            "trace.mem_addrs": counts["addrs"],
            "uarch.sim_cycles": counts["cycles"],
            "uarch.sim_instructions": counts["instructions"],
            "profiling.counters_s": rec.total("profiling.counters") / ops,
            "experiments.key_s": rec.total("experiments.key") / ops,
            "experiments.cache_put_s": rec.total("experiments.cache_put") / ops,
            "experiments.cache_get_s": rec.total("experiments.cache_get") / ops,
            "experiments.cache_bytes": self.traced_cache.stats().total_bytes,
            # Each op under repro.obs recording over the same op without, minus 1.
            "obs.session_overhead_frac": statistics.median(
                on / off for on, off in zip(rec.seconds("obs.whole_op"), whole)
            ) - 1.0,
        }
        rows.update(uarch_rows(rec, ops, counts["addrs"], counts["instructions"]))
        # Cell classes of the sweep clip: (row suffix, field of the op, value).
        for label, field, value in (
            ("crf1", 1, 1), ("crf23", 1, 23), ("crf51", 1, 51), ("refs1", 2, 1), ("refs8", 2, 8)
        ):
            rows[f"codec.encode_s.{label}"] = mean(
                [rec.duration(span) for op, span in self.plain.items()
                 if op[0] == QUICK.sweep_video and op[field] == value]
            )
        return rows


def _slots_conserved(c: CounterSet, tol: float = 1e-6) -> bool:
    """Top-down categories cover the whole slot budget (percent), memory +
    core make up the back end, and the run took cycles."""
    total = c.retiring + c.bad_speculation + c.frontend_bound + c.backend_bound
    return (
        abs(total - 100.0) <= tol * 100.0
        and abs(c.memory_bound + c.core_bound - c.backend_bound)
        <= tol * max(c.backend_bound, 1.0)
        and c.cycles > 0
    )
