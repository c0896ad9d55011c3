"""Unit tests for repro.codec.mbdecision."""

import numpy as np
import pytest

from repro.codec.entropy import se_bits, ue_bits
from repro.codec.mbdecision import (
    InterCandidate,
    choose_inter_ref,
    mv_bits,
    search_partitions,
)
from repro.codec.motion import PaddedReference
from repro.codec.options import EncoderOptions
from repro.codec.types import MBMode, MotionVector


def _scene(dy=2, dx=3, seed=0):
    rng = np.random.default_rng(seed)
    coarse = rng.random((13, 13)) * 255
    plane = np.kron(coarse, np.ones((8, 8)))[:96, :96].astype(np.uint8)
    ref = PaddedReference.from_plane(plane, pad=40)
    cur = ref.block(32 + dy, 32 + dx).copy()
    return cur, ref


class TestMvBits:
    def test_zero_residual_cheapest(self):
        pred = MotionVector(4, -8)
        same = MotionVector(4, -8, 0)
        far = MotionVector(40, -80, 0)
        assert mv_bits(same, pred) < mv_bits(far, pred)

    def test_matches_component_costs(self):
        mv = MotionVector(12, -4, 2)
        pred = MotionVector(4, 0)
        expected = se_bits(8) + se_bits(-4) + ue_bits(2)
        assert mv_bits(mv, pred) == expected


class TestChooseInterRef:
    def test_single_ref(self):
        cur, ref = _scene()
        options = EncoderOptions(crf=23, refs=1, me="hex", merange=8)
        best, ref_idx, points, _ = choose_inter_ref(
            cur, [ref], 32, 32, MotionVector(0, 0), options, 23
        )
        assert ref_idx == 0
        assert best.cost == 0.0
        assert points >= 1

    def test_prefers_better_reference(self):
        cur, good_ref = _scene(seed=1)
        # A second, unrelated reference plane.
        rng = np.random.default_rng(99)
        bad_plane = rng.integers(0, 256, (96, 96)).astype(np.uint8)
        bad_ref = PaddedReference.from_plane(bad_plane, pad=40)
        options = EncoderOptions(crf=23, refs=2, me="hex", merange=8)
        _best, ref_idx, _points, _ = choose_inter_ref(
            cur, [bad_ref, good_ref], 32, 32, MotionVector(0, 0), options, 23
        )
        assert ref_idx == 1  # found the matching reference despite penalty

    def test_more_refs_more_points(self):
        cur, ref = _scene(seed=2)
        options = EncoderOptions(crf=23, refs=1, me="hex", merange=8)
        _b1, _r1, p1, _ = choose_inter_ref(
            cur, [ref], 32, 32, MotionVector(0, 0), options, 23
        )
        _b2, _r2, p2, _ = choose_inter_ref(
            cur, [ref, ref, ref], 32, 32, MotionVector(0, 0), options, 23
        )
        assert p2 > p1  # "refs expands the encoding search space"


class TestSearchPartitions:
    def test_disallowed_by_options(self):
        cur, ref = _scene()
        opts = EncoderOptions(partitions="none")
        assert search_partitions(
            cur, ref, 32, 32, MotionVector(0, 0), MotionVector(0, 0), opts, size=8
        ) is None

    def test_p8x8_produces_four_mvs(self):
        cur, ref = _scene(seed=3)
        opts = EncoderOptions(partitions="-p4x4")
        cand = search_partitions(
            cur, ref, 32, 32, MotionVector(8, 12), MotionVector(0, 0), opts, size=8
        )
        assert cand is not None
        assert cand.mode is MBMode.INTER_8X8
        assert len(cand.mvs) == 4
        assert cand.prediction.shape == (16, 16)

    def test_p4x4_requires_all_partitions(self):
        cur, ref = _scene()
        assert search_partitions(
            cur, ref, 32, 32, MotionVector(0, 0), MotionVector(0, 0),
            EncoderOptions(partitions="-p4x4"), size=4,
        ) is None
        cand = search_partitions(
            cur, ref, 32, 32, MotionVector(0, 0), MotionVector(0, 0),
            EncoderOptions(partitions="all"), size=4,
        )
        assert cand is not None
        assert cand.mode is MBMode.INTER_4X4
        assert len(cand.mvs) == 16

    def test_partitions_never_worse_than_parent_distortion(self):
        """Per-partition refinement starts at the parent MV, so the summed
        partition SAD cannot exceed the parent SAD at that MV."""
        cur, ref = _scene(dy=1, dx=1, seed=4)
        parent = MotionVector(0, 0)
        opts = EncoderOptions(partitions="all")
        cand = search_partitions(
            cur, ref, 32, 32, parent, MotionVector(0, 0), opts, size=8
        )
        assert cand is not None
        parent_sad = float(
            np.sum(np.abs(cur.astype(int) - ref.block(32, 32).astype(int)))
        )
        assert cand.distortion <= parent_sad + 1e-9


class TestInterCandidate:
    def test_rd_cost_monotone_in_rate(self):
        pred = np.zeros((16, 16))
        cheap = InterCandidate(
            mode=MBMode.INTER_16X16, mvs=[MotionVector(0, 0)], prediction=pred,
            distortion=100.0, rate_bits=10, n_search_points=1, positions=[],
        )
        pricey = InterCandidate(
            mode=MBMode.INTER_16X16, mvs=[MotionVector(0, 0)], prediction=pred,
            distortion=100.0, rate_bits=50, n_search_points=1, positions=[],
        )
        assert cheap.rd_cost(23) < pricey.rd_cost(23)
