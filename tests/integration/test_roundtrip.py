"""Integration: encode→decode round trips across the full option surface."""

import numpy as np
import pytest

from repro.codec.decoder import decode
from repro.codec.encoder import encode
from repro.codec.options import EncoderOptions
from repro.codec.presets import PRESET_NAMES, preset_options


def _assert_exact(result, video):
    decoded = decode(result.stream.bitstream)
    recon = np.stack(
        [
            f.recon[: video.height, : video.width]
            for f in result.stream.frames_in_display_order()
        ]
    )
    got = np.stack([f.luma for f in decoded.video])
    assert np.array_equal(recon, got), "decoder diverged from encoder recon"


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_roundtrip_every_preset(preset, tiny_video):
    opts = preset_options(preset, crf=26, refs=2)
    result = encode(tiny_video, opts)
    _assert_exact(result, tiny_video)


@pytest.mark.parametrize("me", ["dia", "hex", "umh", "esa", "tesa"])
def test_roundtrip_every_motion_method(me, tiny_video):
    opts = EncoderOptions(crf=24, refs=1, me=me, merange=8, bframes=0)
    result = encode(tiny_video, opts)
    _assert_exact(result, tiny_video)


@pytest.mark.parametrize("crf", [0, 13, 37, 51])
def test_roundtrip_crf_extremes(crf, tiny_video):
    result = encode(tiny_video, EncoderOptions(crf=crf, refs=2, bframes=1))
    _assert_exact(result, tiny_video)


def test_roundtrip_max_refs(tiny_video):
    result = encode(tiny_video, EncoderOptions(crf=23, refs=16, bframes=0))
    _assert_exact(result, tiny_video)


def test_roundtrip_busy_content_with_scenecuts(busy_video):
    result = encode(busy_video, EncoderOptions(crf=23, refs=2, bframes=2))
    _assert_exact(result, busy_video)


def test_roundtrip_odd_dimensions():
    """Non-MB-aligned frames pad internally and crop back."""
    from repro.video.synthetic import SceneSpec, generate_scene

    clip = generate_scene(
        SceneSpec(width=52, height=38, n_frames=3, seed=6, name="odd")
    )
    result = encode(clip, EncoderOptions(crf=25, refs=1, bframes=0))
    decoded = decode(result.stream.bitstream)
    assert decoded.video.resolution == (52, 38)
    _assert_exact(result, clip)


def test_transcode_chain_stays_decodable(tiny_video):
    """Transcode the transcode: generation loss accrues but streams decode."""
    first = encode(tiny_video, EncoderOptions(crf=20, refs=1, bframes=0))
    middle = decode(first.stream.bitstream).video
    second = encode(middle, EncoderOptions(crf=30, refs=1, bframes=0))
    final = decode(second.stream.bitstream).video
    assert len(final) == len(tiny_video)
    # Generation loss: second encode's PSNR vs original is no better than
    # the first's.
    from repro.video.metrics import psnr_sequence

    assert psnr_sequence(tiny_video, final) <= first.psnr_db + 1.0
