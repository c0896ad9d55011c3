"""Unit tests for repro.codec.motion."""

import numpy as np
import pytest

from repro.codec.motion import (
    MotionSearchResult,
    PaddedReference,
    fetch_prediction,
    motion_search,
    subpel_refine,
)


def _ref_with_block(block, at_y, at_x, h=96, w=96, fill=0):
    plane = np.full((h, w), fill, dtype=np.uint8)
    plane[at_y : at_y + 16, at_x : at_x + 16] = block
    return PaddedReference.from_plane(plane, pad=40)


def _textured_block(seed=0):
    return np.random.default_rng(seed).integers(0, 256, (16, 16)).astype(np.uint8)


class TestPaddedReference:
    def test_block_fetch_matches_plane(self):
        plane = np.arange(32 * 32, dtype=np.uint8).reshape(32, 32)
        ref = PaddedReference.from_plane(plane, pad=8)
        assert np.array_equal(ref.block(4, 4), plane[4:20, 4:20])

    def test_negative_coordinates_edge_padded(self):
        plane = np.full((32, 32), 50, dtype=np.uint8)
        plane[0, :] = 99
        ref = PaddedReference.from_plane(plane, pad=8)
        block = ref.block(-4, 0)
        assert np.all(block[:5, :] == 99)  # replicated top edge

    def test_half_pel_interpolates(self):
        plane = np.zeros((32, 32), dtype=np.uint8)
        plane[:, 16:] = 100
        ref = PaddedReference.from_plane(plane, pad=8)
        # Fetch at x=15.5: the column straddling the step edge averages.
        block = ref.half_pel_block(0, 15 * 4 + 2, size=4)
        assert block[0, 0] == pytest.approx(50.0)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            PaddedReference.from_plane(np.zeros((4, 4, 4), np.uint8), pad=4)


def _translated_scene(dy, dx, seed=0):
    """A smooth textured plane and the block it shows at (32+dy, 32+dx).

    Smoothness gives the SAD landscape a gradient, which is what local
    pattern searches (dia/hex/umh) rely on — exactly like real video.
    """
    rng = np.random.default_rng(seed)
    coarse = rng.random((13, 13)) * 255
    up = np.kron(coarse, np.ones((8, 8)))[:96, :96]
    plane = up.astype(np.uint8)
    ref = PaddedReference.from_plane(plane, pad=40)
    cur = ref.block(32 + dy, 32 + dx).copy()
    return cur, ref


class TestIntegerSearch:
    @pytest.mark.parametrize("method", ["dia", "hex", "umh", "esa"])
    def test_finds_exact_match_nearby(self, method):
        cur, ref = _translated_scene(dy=4, dx=6)
        result = motion_search(cur, ref, 32, 32, method=method, merange=16)
        assert result.cost == 0.0
        assert (result.mv_x // 4, result.mv_y // 4) == (6, 4)

    def test_esa_finds_distant_match_patterns_may_miss(self):
        block = _textured_block(1)
        ref = _ref_with_block(block, at_y=32 + 14, at_x=32 - 13, fill=128)
        result = motion_search(block, ref, 32, 32, method="esa", merange=16)
        assert result.cost == 0.0
        assert (result.mv_x // 4, result.mv_y // 4) == (-13, 14)

    def test_tesa_runs_and_finds_match(self):
        block = _textured_block(2)
        ref = _ref_with_block(block, at_y=34, at_x=34, fill=100)
        result = motion_search(block, ref, 32, 32, method="tesa", merange=8)
        assert (result.mv_x // 4, result.mv_y // 4) == (2, 2)

    def test_esa_evaluates_full_window(self):
        block = _textured_block(3)
        ref = _ref_with_block(block, at_y=32, at_x=32)
        result = motion_search(block, ref, 32, 32, method="esa", merange=8)
        assert result.n_points >= (2 * 8 + 1) ** 2

    def test_pattern_search_cheaper_than_esa(self):
        block = _textured_block(4)
        ref = _ref_with_block(block, at_y=33, at_x=33)
        dia = motion_search(block, ref, 32, 32, method="dia", merange=16)
        esa = motion_search(block, ref, 32, 32, method="esa", merange=16)
        assert dia.n_points < esa.n_points / 5

    def test_umh_evaluates_more_than_hex(self):
        block = _textured_block(5)
        ref = _ref_with_block(block, at_y=40, at_x=40, fill=77)
        hex_r = motion_search(block, ref, 32, 32, method="hex", merange=16)
        umh_r = motion_search(block, ref, 32, 32, method="umh", merange=16)
        assert umh_r.n_points > hex_r.n_points

    def test_pred_mv_seeds_search(self):
        block = _textured_block(6)
        ref = _ref_with_block(block, at_y=32 + 12, at_x=32 + 12, fill=128)
        seeded = motion_search(
            block, ref, 32, 32, method="dia", merange=16, pred_mv=(12, 12)
        )
        assert seeded.cost == 0.0

    def test_merange_clamps(self):
        block = _textured_block(7)
        ref = _ref_with_block(block, at_y=32, at_x=32)
        result = motion_search(
            block, ref, 32, 32, method="hex", merange=4, pred_mv=(100, -100)
        )
        assert abs(result.mv_x // 4) <= 4 and abs(result.mv_y // 4) <= 4

    def test_unknown_method(self):
        block = _textured_block()
        ref = _ref_with_block(block, 32, 32)
        with pytest.raises(ValueError, match="unknown"):
            motion_search(block, ref, 32, 32, method="spiral")

    def test_improvements_tracked(self):
        block = _textured_block(8)
        ref = _ref_with_block(block, at_y=35, at_x=35, fill=60)
        result = motion_search(block, ref, 32, 32, method="hex", merange=16)
        assert len(result.improvements) == len(result.positions)
        assert result.improvements[0] is True  # first candidate always "best"

    def test_wrong_block_shape(self):
        ref = _ref_with_block(_textured_block(), 32, 32)
        with pytest.raises(ValueError):
            motion_search(np.zeros((8, 8), np.uint8), ref, 32, 32)


class TestSubpelRefine:
    def _setup(self):
        # A smooth gradient makes fractional positions strictly better.
        y, x = np.mgrid[0:96, 0:96]
        plane = ((x * 2.0) % 256).astype(np.uint8)
        ref = PaddedReference.from_plane(plane, pad=40)
        cur = ref.half_pel_block(32 * 4 + 2, 32 * 4 + 2)  # true offset (0.5, 0.5)
        cur = np.clip(np.round(cur), 0, 255).astype(np.uint8)
        return cur, ref

    def test_subme_below_two_is_noop(self):
        cur, ref = self._setup()
        start = MotionSearchResult(mv_x=0, mv_y=0, cost=100.0, n_points=1)
        out = subpel_refine(cur, ref, 32, 32, start, subme=1)
        assert out is start

    def test_half_pel_improves_cost(self):
        cur, ref = self._setup()
        full = motion_search(cur, ref, 32, 32, method="hex", merange=4)
        refined = subpel_refine(cur, ref, 32, 32, full, subme=4)
        assert refined.cost <= full.cost
        # The chosen MV should have a fractional component.
        assert refined.mv_x % 4 != 0 or refined.mv_y % 4 != 0

    def test_higher_subme_more_evaluations(self):
        cur, ref = self._setup()
        full = motion_search(cur, ref, 32, 32, method="hex", merange=4)
        r2 = subpel_refine(cur, ref, 32, 32, full, subme=2)
        r4 = subpel_refine(cur, ref, 32, 32, full, subme=4)
        assert r4.n_points >= r2.n_points

    def test_refinement_keeps_full_pel_improvements(self):
        cur, ref = self._setup()
        full = motion_search(cur, ref, 32, 32, method="hex", merange=4)
        refined = subpel_refine(cur, ref, 32, 32, full, subme=4)
        assert full.improvements
        assert refined.improvements == full.improvements


class TestFetchPrediction:
    def test_full_pel_matches_block(self):
        plane = np.arange(64 * 64, dtype=np.uint64).astype(np.uint8).reshape(64, 64)
        ref = PaddedReference.from_plane(plane, pad=24)
        pred = fetch_prediction(ref, 16, 16, 8, -4)
        assert np.array_equal(pred, ref.block(15, 18).astype(np.float64))

    def test_subpel_uses_interpolation(self):
        plane = np.zeros((64, 64), dtype=np.uint8)
        plane[:, 32:] = 100
        ref = PaddedReference.from_plane(plane, pad=24)
        pred = fetch_prediction(ref, 16, 28, 2, 0)  # x = 28.5
        assert 0 < pred[0, 3] < 100  # interpolated at the edge
