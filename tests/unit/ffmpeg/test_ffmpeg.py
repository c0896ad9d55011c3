"""Unit tests for repro.ffmpeg (the transcode pipeline)."""

import numpy as np
import pytest

from repro.codec.encoder import encode
from repro.codec.options import EncoderOptions
from repro.ffmpeg.transcode import transcode


class TestTranscode:
    def test_raw_frames_input(self, tiny_video):
        result = transcode(tiny_video, preset="veryfast", crf=28)
        assert result.quality_psnr_db > 20
        assert result.size_bitrate_kbps > 0
        assert result.total_seconds >= result.encode.encode_seconds
        assert result.bitstream

    def test_bitstream_input_retranscode(self, tiny_video):
        first = encode(tiny_video, EncoderOptions(crf=18, refs=1, bframes=0))
        result = transcode(first.stream.bitstream, preset="ultrafast", crf=35)
        assert result.decode_seconds > 0
        assert result.encode.stream.n_frames == len(tiny_video)
        # Re-encoding at much higher crf shrinks the stream.
        assert result.encode.total_bits < first.total_bits

    def test_options_object_wins(self, tiny_video):
        opts = EncoderOptions(crf=40, refs=1, bframes=0)
        result = transcode(tiny_video, options=opts)
        assert result.encode.options.crf == 40

    def test_options_and_preset_conflict(self, tiny_video):
        with pytest.raises(ValueError, match="not both"):
            transcode(tiny_video, preset="fast", options=EncoderOptions())

    def test_preset_refs_default(self, tiny_video):
        result = transcode(tiny_video, preset="slow")
        assert result.encode.options.refs == 5  # Table II slow preset

    def test_triangle_direction_crf(self, tiny_video):
        lo = transcode(tiny_video, preset="veryfast", crf=10)
        hi = transcode(tiny_video, preset="veryfast", crf=45)
        assert lo.quality_psnr_db > hi.quality_psnr_db
        assert lo.size_bitrate_kbps > hi.size_bitrate_kbps


class TestFullTranscodeTracing:
    def test_decode_stage_traced(self, tiny_video):
        """Profiling a bitstream-input transcode covers decode + encode."""
        from repro.codec.encoder import encode as _encode
        from repro.trace.kernels import build_program
        from repro.trace.recorder import RecordingTracer

        first = _encode(tiny_video, EncoderOptions(crf=20, refs=1, bframes=0))
        program = build_program()

        # Encode-only trace (raw frames in).
        t_enc = RecordingTracer(program)
        transcode(tiny_video, options=EncoderOptions(crf=30, refs=1, bframes=0),
                  tracer=t_enc)
        # Full transcode trace (bitstream in: decode + encode).
        t_full = RecordingTracer(program)
        transcode(first.stream.bitstream,
                  options=EncoderOptions(crf=30, refs=1, bframes=0),
                  tracer=t_full)
        assert (
            t_full.stream.total_instructions > t_enc.stream.total_instructions
        )

    def test_decode_much_cheaper_than_encode(self, tiny_video):
        """'The decoding stage is deterministic and hence relatively
        straight-forward' (paper §II-A): decode < 40% of encode work."""
        from repro.codec.decoder import Decoder
        from repro.codec.encoder import Encoder
        from repro.trace.kernels import build_program
        from repro.trace.recorder import RecordingTracer

        program = build_program()
        enc_tracer = RecordingTracer(program)
        result = Encoder(
            EncoderOptions(crf=23, refs=2, bframes=1), tracer=enc_tracer
        ).encode(tiny_video)
        dec_tracer = RecordingTracer(program)
        Decoder(tracer=dec_tracer).decode(result.stream.bitstream)
        ratio = (
            dec_tracer.stream.total_instructions
            / enc_tracer.stream.total_instructions
        )
        assert 0.0 < ratio < 0.4
