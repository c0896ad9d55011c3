"""Unit tests for encoder-internal behaviours (MV prediction, skip
detection, adaptive quantization, reference management)."""

import itertools

import numpy as np
import pytest

from repro.codec.encoder import encode
from repro.codec.motion import predict_mv
from repro.codec.options import EncoderOptions
from repro.codec.types import FrameType, MBMode, MotionVector
from repro.video.frame import FrameSequence
from repro.video.synthetic import SceneSpec, generate_scene


class TestMvPrediction:
    def test_no_neighbors_zero(self):
        grid = [[None, None], [None, None]]
        mv = predict_mv(grid, 0, 0)
        assert (mv.dx, mv.dy) == (0, 0)

    def test_single_neighbor_copied(self):
        grid = [[MotionVector(8, -4), None], [None, None]]
        mv = predict_mv(grid, 0, 1)
        assert (mv.dx, mv.dy) == (8, -4)

    def test_median_of_three(self):
        # left=(0,0), top=(8,8), topright=(16,16) -> median (8,8).
        grid = [
            [None, MotionVector(8, 8), MotionVector(16, 16)],
            [MotionVector(0, 0), None, None],
        ]
        mv = predict_mv(grid, 1, 1)
        assert (mv.dx, mv.dy) == (8, 8)

    def test_intra_neighbors_skipped(self):
        # Intra macroblocks leave None in the grid and must not count.
        grid = [
            [None, None, None],
            [MotionVector(4, 4), None, None],
        ]
        mv = predict_mv(grid, 1, 1)
        assert (mv.dx, mv.dy) == (4, 4)

    @pytest.mark.parametrize("n_neighbors", [1, 2, 3])
    def test_integer_median_is_the_np_median_form(self, n_neighbors):
        """Exhaustive over dx, dy in [-9, 9]: the predictor is exactly
        ``int(np.median(...))`` per component (truncation toward zero for
        two neighbours), so encoder and decoder bitstreams cannot move."""
        values = range(-9, 10)
        # (row, col) of the left / top / top-right neighbours of (1, 1).
        cells = [(1, 0), (0, 1), (0, 2)][:n_neighbors]
        for combo in itertools.product(values, repeat=n_neighbors):
            grid = [[None, None, None], [None, None, None]]
            for (row, col), v in zip(cells, combo):
                # dy takes the mirrored value so the components differ.
                grid[row][col] = MotionVector(v, -v, ref=1)
            mv = predict_mv(grid, 1, 1)
            want_dx = int(np.median(list(combo)))
            want_dy = int(np.median([-v for v in combo]))
            assert (mv.dx, mv.dy, mv.ref) == (want_dx, want_dy, 0), combo
            assert type(mv.dx) is int and type(mv.dy) is int


class TestSkipDetection:
    def _static_clip(self, n=4):
        spec = SceneSpec(
            width=48, height=32, n_frames=1, seed=12,
            texture_detail=0.4, noise_level=0.0, name="skiptest",
        )
        frame = generate_scene(spec).frames[0]
        return FrameSequence(frames=[frame] * n, fps=30, name="static")

    def test_static_frames_all_skip(self):
        result = encode(
            self._static_clip(), EncoderOptions(crf=26, refs=1, bframes=0)
        )
        for coded in result.stream.frames_in_display_order()[1:]:
            modes = {mb.mode for mb in coded.macroblocks}
            assert modes == {MBMode.SKIP}

    def test_skip_frames_nearly_free(self):
        result = encode(
            self._static_clip(), EncoderOptions(crf=26, refs=1, bframes=0)
        )
        frames = result.stream.frames_in_display_order()
        assert frames[1].bits < frames[0].bits / 20

    def test_higher_crf_more_skips(self, tiny_video):
        lo = encode(tiny_video, EncoderOptions(crf=10, refs=1, bframes=0))
        hi = encode(tiny_video, EncoderOptions(crf=45, refs=1, bframes=0))
        skips = lambda r: sum(s.skip_mbs for s in r.frame_stats)
        assert skips(hi) >= skips(lo)


class TestAdaptiveQuantInEncoder:
    def test_aq_varies_mb_qp(self):
        # A frame with one flat half and one busy half.
        flat = np.full((32, 24), 90, dtype=np.uint8)
        busy = np.random.default_rng(5).integers(0, 256, (32, 24)).astype(np.uint8)
        frame = np.concatenate([flat, busy], axis=1)
        video = FrameSequence.from_lumas([frame], fps=30)
        result = encode(video, EncoderOptions(crf=23, aq_mode=1, bframes=0))
        qps = [mb.qp for mb in result.stream.frames[0].macroblocks]
        assert len(set(qps)) > 1  # per-MB adaptation happened
        # Flat-half MBs (first columns) get lower QP than busy-half MBs.
        n_mb_x = 48 // 16
        flat_qps = [mb.qp for mb in result.stream.frames[0].macroblocks
                    if mb.mb_x == 0]
        busy_qps = [mb.qp for mb in result.stream.frames[0].macroblocks
                    if mb.mb_x == n_mb_x - 1]
        assert np.mean(flat_qps) < np.mean(busy_qps)

    def test_aq_off_uniform_qp(self):
        frame = np.random.default_rng(6).integers(0, 256, (32, 48)).astype(np.uint8)
        video = FrameSequence.from_lumas([frame], fps=30)
        result = encode(video, EncoderOptions(crf=23, aq_mode=0, bframes=0))
        qps = {mb.qp for mb in result.stream.frames[0].macroblocks}
        assert len(qps) == 1


class TestReferenceManagement:
    def test_ref_indices_within_refs(self, tiny_video):
        result = encode(tiny_video, EncoderOptions(crf=20, refs=2, bframes=0))
        for frame in result.stream.frames:
            for mb in frame.macroblocks:
                for mv in mb.mvs:
                    assert 0 <= mv.ref < 2

    def test_b_frames_not_referenced(self, tiny_video):
        """B frames never enter the DPB: later frames' ref indices address
        only anchors, so decode must stay exact even with many Bs."""
        from repro.codec.decoder import decode

        opts = EncoderOptions(crf=24, refs=3, bframes=3, b_adapt=0, scenecut=0)
        result = encode(tiny_video, opts)
        decoded = decode(result.stream.bitstream)
        recon = np.stack(
            [f.recon[: tiny_video.height, : tiny_video.width]
             for f in result.stream.frames_in_display_order()]
        )
        assert np.array_equal(
            recon, np.stack([f.luma for f in decoded.video])
        )

    def test_frame_types_recorded_in_stats(self, tiny_video):
        result = encode(
            tiny_video, EncoderOptions(crf=23, refs=1, bframes=2, b_adapt=0,
                                       scenecut=0)
        )
        stat_types = [s.frame_type for s in result.frame_stats]
        assert stat_types[0] is FrameType.I
        assert FrameType.B in stat_types
