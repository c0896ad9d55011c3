"""Property-based tests for the video substrate and codec round trip."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.codec.decoder import decode
from repro.codec.encoder import encode
from repro.codec.options import EncoderOptions
from repro.video.frame import Frame, FrameSequence
from repro.video.metrics import psnr

lumas_st = arrays(
    dtype=np.uint8,
    shape=st.tuples(
        st.integers(min_value=16, max_value=48),
        st.integers(min_value=16, max_value=48),
    ),
    elements=st.integers(min_value=0, max_value=255),
)


class TestFrameProps:
    @given(lumas_st)
    def test_padding_preserves_content(self, luma):
        frame = Frame(luma)
        padded = frame.padded_luma()
        assert padded.shape[0] % 16 == 0 and padded.shape[1] % 16 == 0
        assert np.array_equal(padded[: frame.height, : frame.width], luma)

    @given(lumas_st)
    def test_psnr_reflexive(self, luma):
        assert psnr(luma, luma) == 100.0

    @given(lumas_st, st.integers(min_value=1, max_value=30))
    def test_psnr_decreases_with_uniform_shift(self, luma, shift):
        shifted = np.clip(luma.astype(int) + shift, 0, 255).astype(np.uint8)
        if np.array_equal(shifted, luma):
            return  # saturated everywhere
        assert psnr(luma, shifted) < 100.0


class TestCodecRoundTripProps:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        crf=st.sampled_from([5, 23, 40]),
        refs=st.sampled_from([1, 2]),
        bframes=st.sampled_from([0, 1]),
    )
    @settings(max_examples=12, deadline=None)
    def test_any_content_roundtrips_exactly(self, seed, crf, refs, bframes):
        """The decoder reproduces the encoder's reconstruction bit-exactly
        for arbitrary content and parameter combinations."""
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 256, (32, 48)).astype(np.uint8)
        frames = [base]
        for _ in range(2):
            shift = rng.integers(-2, 3, 2)
            moved = np.roll(frames[-1], tuple(shift), axis=(0, 1))
            noisy = np.clip(
                moved.astype(int) + rng.integers(-4, 5, moved.shape), 0, 255
            ).astype(np.uint8)
            frames.append(noisy)
        video = FrameSequence.from_lumas(frames, fps=30.0)
        result = encode(
            video, EncoderOptions(crf=crf, refs=refs, bframes=bframes, scenecut=0)
        )
        decoded = decode(result.stream.bitstream)
        recon = np.stack(
            [f.recon[:32, :48] for f in result.stream.frames_in_display_order()]
        )
        assert np.array_equal(recon, np.stack([f.luma for f in decoded.video]))

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=8, deadline=None)
    def test_psnr_nonincreasing_in_crf(self, seed):
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 256, (32, 32)).astype(np.uint8)
        video = FrameSequence.from_lumas([base, base], fps=30.0)
        opts = dict(refs=1, bframes=0, scenecut=0)
        psnrs = [
            encode(video, EncoderOptions(crf=crf, **opts)).psnr_db
            for crf in (5, 25, 45)
        ]
        assert psnrs[0] >= psnrs[1] >= psnrs[2]
