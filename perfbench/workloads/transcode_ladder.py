"""``transcode_ladder``: bitstream -> bitstream transcodes down the preset ladder.

The paper's unit of work (decode + re-encode; Fig. 2 speed axis, Fig. 6
ladder). The codec does ~100% of the work and uarch / trace / experiments /
service do none: a codec gain must show here, a simulator gain must not.

Clips are fixed, one from each half of Table I's entropy order
(``desktop`` 0.2, ``holi`` 7.0). The seed shuffles op order only: Table I
clips differ 2.3x in transcode cost at QUICK scale, so a seed-chosen clip
would put seed-to-seed spread far outside any regression bound.
"""

from __future__ import annotations

import hashlib
import random
import time

import numpy as np

from perfbench.spans import SpanRecorder
from perfbench.workloads import load_clip, mean
from repro.codec.decoder import decode
from repro.codec.encoder import Encoder
from repro.codec.presets import preset_options
from repro.experiments.runner import QUICK
from repro.ffmpeg.transcode import transcode

CLIPS = ("desktop", "holi")
PRESETS = ("ultrafast", "veryfast", "medium", "slow")


class Workload:
    name = "transcode_ladder"
    trace_passes = 2

    def setup(self, seed: int, smoke: bool, tmp) -> None:
        clips = CLIPS[:1] if smoke else CLIPS
        self.mezzanines: dict[str, bytes] = {}
        self.load_s: list[float] = []
        for clip in clips:
            start = time.perf_counter()
            video = load_clip(clip, QUICK)
            self.load_s.append(time.perf_counter() - start)
            mezzanine = Encoder(preset_options("medium", crf=10)).encode(video)
            self.mezzanines[clip] = mezzanine.stream.bitstream
        self.options = {p: preset_options(p, crf=23) for p in PRESETS}
        self.ops = [(clip, preset) for clip in clips for preset in PRESETS]
        random.Random(seed).shuffle(self.ops)
        # First result per op is kept whole (its reconstruction feeds the
        # decoder check); later passes keep only the output bytes.
        self.first: dict[tuple, object] = {}
        self.outputs: dict[tuple, list[bytes]] = {op: [] for op in self.ops}
        self.traced_bytes = 0

    def begin_pass(self) -> None:
        pass

    def call(self, op: tuple) -> int:
        clip, preset = op
        result = transcode(self.mezzanines[clip], options=self.options[preset])
        self.first.setdefault(op, result)
        self.outputs[op].append(result.bitstream)
        return 1

    def check(self) -> tuple[int, list]:
        failed = 0
        checked_presets: set[str] = set()
        items = []
        for op in sorted(self.outputs):
            outputs = self.outputs[op]
            if not outputs:
                continue
            ok = all(out == outputs[0] for out in outputs)
            if op[1] not in checked_presets:
                checked_presets.add(op[1])
                ok = ok and _decodes_to_reconstruction(self.first[op])
            failed += 0 if ok else len(outputs)
            items.append([*op, hashlib.sha256(outputs[0]).hexdigest()])
        return failed, items

    def trace_op(self, rec: SpanRecorder, op_id: int, op: tuple) -> None:
        clip, preset = op
        with rec.span("op", op_id=op_id):
            with rec.span("codec.decode"):
                decoded = decode(self.mezzanines[clip])
            with rec.span(f"codec.encode.{preset}"):
                result = Encoder(self.options[preset]).encode(decoded.video)
        self.traced_bytes += len(result.stream.bitstream)

    def trace_rows(self, rec: SpanRecorder, ops: int, whole: list[float]) -> dict:
        by_preset = {p: rec.seconds(f"codec.encode.{p}") for p in PRESETS}
        encode = sum(map(sum, by_preset.values()))
        rows = {
            "video.load_s": mean(self.load_s) * self.setup_scale,
            "codec.decode_s": rec.total("codec.decode") / ops,
            "codec.encode_s": encode / ops,
            "codec.encode_frames_per_s": ops * QUICK.n_frames / encode,
            "codec.stream_bytes": self.traced_bytes,
        }
        for preset, seconds in by_preset.items():
            rows[f"codec.encode_s.{preset}"] = mean(seconds)
        return rows


def _decodes_to_reconstruction(result) -> bool:
    """``decode(output)`` luma equals the encoder's own reconstruction."""
    stream = result.encode.stream
    decoded = decode(stream.bitstream)
    recon = np.stack(
        [
            f.recon[: stream.height, : stream.width]
            for f in stream.frames_in_display_order()
        ]
    )
    return np.array_equal(recon, np.stack([f.luma for f in decoded.video]))
