"""Unit tests for repro.codec.encoder and repro.codec.decoder."""

import numpy as np
import pytest

from repro.codec.decoder import decode
from repro.codec.encoder import EncodeResult, Encoder, LoopOptimizations, encode
from repro.codec.options import EncoderOptions
from repro.codec.types import FrameType, MBMode


def _roundtrip_exact(result: EncodeResult, video):
    decoded = decode(result.stream.bitstream)
    recon = np.stack(
        [
            f.recon[: video.height, : video.width]
            for f in result.stream.frames_in_display_order()
        ]
    )
    got = np.stack([f.luma for f in decoded.video])
    return np.array_equal(recon, got)


class TestEncodeBasics:
    def test_produces_result(self, tiny_video, default_options):
        result = encode(tiny_video, default_options)
        assert result.stream.n_frames == len(tiny_video)
        assert result.total_bits > 0
        assert result.bitrate_kbps > 0
        assert 15 < result.psnr_db <= 100

    def test_first_frame_is_idr(self, tiny_video, default_options):
        result = encode(tiny_video, default_options)
        display = result.stream.frames_in_display_order()
        assert display[0].frame_type is FrameType.I

    def test_deterministic(self, tiny_video, default_options):
        a = encode(tiny_video, default_options)
        b = encode(tiny_video, default_options)
        assert a.stream.bitstream == b.stream.bitstream

    def test_default_options_used_when_none(self, tiny_video):
        result = encode(tiny_video)
        assert result.options.crf == 23

    def test_frame_stats_populated(self, tiny_video, default_options):
        result = encode(tiny_video, default_options)
        assert len(result.frame_stats) == len(tiny_video)
        for stats in result.frame_stats:
            total = stats.skip_mbs + stats.intra_mbs + stats.inter_mbs
            assert total == result.stream.frames[0].mb_count


class TestQualityKnobs:
    def test_lower_crf_higher_quality_and_bitrate(self, tiny_video):
        lo = encode(tiny_video, EncoderOptions(crf=8, refs=1, bframes=0))
        hi = encode(tiny_video, EncoderOptions(crf=45, refs=1, bframes=0))
        assert lo.psnr_db > hi.psnr_db
        assert lo.bitrate_kbps > hi.bitrate_kbps

    def test_crf_0_near_lossless(self, tiny_video):
        result = encode(tiny_video, EncoderOptions(crf=0, refs=1, bframes=0))
        assert result.psnr_db > 45

    def test_static_video_mostly_skips(self, static_video):
        result = encode(static_video, EncoderOptions(crf=30, refs=1, bframes=0))
        p_frames = [s for s in result.frame_stats if s.frame_type is FrameType.P]
        assert p_frames
        assert all(s.skip_mbs == s.skip_mbs + s.inter_mbs - s.inter_mbs for s in p_frames)
        total_skip = sum(s.skip_mbs for s in p_frames)
        total_mb = len(p_frames) * result.stream.frames[0].mb_count
        assert total_skip / total_mb > 0.8

    def test_busy_video_needs_more_bits(self, static_video, busy_video):
        opts = EncoderOptions(crf=23, refs=1, bframes=0)
        calm = encode(static_video, opts)
        busy = encode(busy_video, opts)
        assert busy.bitrate_kbps > calm.bitrate_kbps * 2


class TestModesExercised:
    def test_b_frames_appear_with_bframes(self, tiny_video):
        result = encode(tiny_video, EncoderOptions(crf=23, bframes=3, b_adapt=0, scenecut=0))
        types = {f.frame_type for f in result.stream.frames}
        assert FrameType.B in types

    def test_no_b_frames_when_disabled(self, tiny_video):
        result = encode(tiny_video, EncoderOptions(crf=23, bframes=0))
        types = {f.frame_type for f in result.stream.frames}
        assert FrameType.B not in types

    def test_intra_modes_on_idr(self, tiny_video, default_options):
        result = encode(tiny_video, default_options)
        idr = result.stream.frames_in_display_order()[0]
        assert all(mb.mode.is_intra for mb in idr.macroblocks)

    def test_inter_modes_on_p_frames(self, tiny_video):
        result = encode(tiny_video, EncoderOptions(crf=23, refs=1, bframes=0))
        p = result.stream.frames_in_display_order()[1]
        assert any(
            mb.mode.is_inter or mb.mode is MBMode.SKIP for mb in p.macroblocks
        )


class TestDecoderRoundTrip:
    def test_exact_reconstruction_default(self, tiny_video, default_options):
        result = encode(tiny_video, default_options)
        assert _roundtrip_exact(result, tiny_video)

    def test_exact_with_bframes(self, tiny_video):
        opts = EncoderOptions(crf=20, refs=2, bframes=2, b_adapt=0, scenecut=0)
        result = encode(tiny_video, opts)
        assert _roundtrip_exact(result, tiny_video)

    def test_exact_without_deblock(self, tiny_video):
        opts = EncoderOptions(crf=28, refs=1, deblock=(0, 0), bframes=0)
        result = encode(tiny_video, opts)
        assert _roundtrip_exact(result, tiny_video)

    def test_exact_with_esa_and_partitions(self, tiny_video):
        opts = EncoderOptions(
            crf=23, refs=1, me="esa", merange=8, partitions="all", bframes=0
        )
        result = encode(tiny_video, opts)
        assert _roundtrip_exact(result, tiny_video)

    def test_decoder_metadata(self, tiny_video, default_options):
        result = encode(tiny_video, default_options)
        decoded = decode(result.stream.bitstream)
        assert decoded.video.fps == pytest.approx(tiny_video.fps)
        assert len(decoded.frame_types) == len(tiny_video)
        assert decoded.frame_types[0] is FrameType.I

    def test_corrupt_header_rejected(self):
        with pytest.raises((ValueError, EOFError)):
            decode(b"\x00\x00\x00")


class TestLoopOptimizations:
    def test_flags_do_not_change_output(self, tiny_video, default_options):
        plain = encode(tiny_video, default_options)
        tiled = encode(
            tiny_video,
            default_options,
            loop_opts=LoopOptimizations(
                tile_transform=True, fuse_deblock=True, interchange_interp=True
            ),
        )
        # Loop transforms are semantics-preserving: identical bitstream.
        assert plain.stream.bitstream == tiled.stream.bitstream

    def test_any_enabled_property(self):
        """The default enables no transform; one flag on is not the default."""
        assert not any(vars(LoopOptimizations()).values())
        assert LoopOptimizations(fuse_deblock=True) != LoopOptimizations()


class TestEncoderReuse:
    def test_encoder_instance_reusable(self, tiny_video, default_options):
        enc = Encoder(default_options)
        a = enc.encode(tiny_video)
        b = enc.encode(tiny_video)
        assert a.stream.bitstream == b.stream.bitstream
