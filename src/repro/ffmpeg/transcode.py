"""The transcode pipeline: decode → (filter) → encode.

Transcoding converts one encoded representation into another (paper
§II-A): the input bitstream is decoded to raw frames — a deterministic,
relatively cheap stage — and the frames are re-encoded with the requested
parameters, which is where all the interesting microarchitectural
behaviour lives. Raw frame sequences are accepted too (the "upload"
case, where the mezzanine has already been decoded).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.codec.decoder import decode as decode_stream
from repro.codec.encoder import EncodeResult, Encoder, LoopOptimizations
from repro.codec.options import EncoderOptions
from repro.codec.presets import preset_options
from repro.obs import session as obs
from repro.trace.recorder import Tracer
from repro.video.frame import FrameSequence

__all__ = ["TranscodeResult", "transcode"]


@dataclass
class TranscodeResult:
    """Output of one transcode: the three Fig. 2 metrics plus the stream."""

    encode: EncodeResult
    decode_seconds: float
    total_seconds: float

    # --- the speed / quality / size triangle -------------------------
    @property
    def quality_psnr_db(self) -> float:
        return self.encode.psnr_db

    @property
    def size_bitrate_kbps(self) -> float:
        return self.encode.bitrate_kbps

    @property
    def bitstream(self) -> bytes:
        return self.encode.stream.bitstream


def transcode(
    source: FrameSequence | bytes,
    *,
    preset: str | None = None,
    crf: int = 23,
    refs: int | None = None,
    options: EncoderOptions | None = None,
    tracer: Tracer | None = None,
    loop_opts: LoopOptimizations | None = None,
) -> TranscodeResult:
    """Transcode ``source`` (raw frames or an encoded bitstream).

    Either pass a fully-formed ``options`` object, or a ``preset`` name
    with ``crf``/``refs`` overrides (x264-style). ``refs=None`` with a
    preset keeps that preset's Table II refs value.
    """
    if options is not None and preset is not None:
        raise ValueError("pass either options or preset, not both")
    if options is None:
        name = preset if preset is not None else "medium"
        options = preset_options(name, crf=crf, refs=refs)

    with obs.span(
        "transcode",
        preset=options.preset_name,
        crf=options.crf,
        refs=options.refs,
        source="bitstream" if isinstance(source, bytes) else "frames",
    ):
        t0 = time.perf_counter()
        if isinstance(source, bytes):
            # The decode stage is traced too: a transcode profile covers the
            # whole decode -> re-encode operation, like the paper's.
            with obs.span("transcode.decode", bytes=len(source)):
                decoded = decode_stream(source, tracer=tracer)
            frames = decoded.video
        else:
            frames = source
        decode_seconds = time.perf_counter() - t0

        encoder = Encoder(options, tracer=tracer, loop_opts=loop_opts)
        encode_result = encoder.encode(frames)
    return TranscodeResult(
        encode=encode_result,
        decode_seconds=decode_seconds,
        total_seconds=decode_seconds + encode_result.encode_seconds,
    )
