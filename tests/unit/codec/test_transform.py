"""Unit tests for repro.codec.transform."""

import numpy as np
import pytest

from repro.codec.transform import (
    ZIGZAG_4X4,
    blockify_16x16,
    forward_4x4,
    hadamard_sad_batch,
    inverse_4x4,
    satd_batch,
    unblockify_16x16,
)


class TestForwardInverse:
    def test_roundtrip_exact(self):
        rng = np.random.default_rng(0)
        blocks = rng.integers(-255, 256, (8, 4, 4)).astype(np.float64)
        back = inverse_4x4(forward_4x4(blocks))
        assert np.allclose(back, blocks, atol=1e-9)

    def test_orthonormal_energy_preserved(self):
        rng = np.random.default_rng(1)
        blocks = rng.normal(0, 50, (5, 4, 4))
        coeffs = forward_4x4(blocks)
        assert np.sum(coeffs**2) == pytest.approx(np.sum(blocks**2))

    def test_dc_of_constant_block(self):
        block = np.full((1, 4, 4), 10.0)
        coeffs = forward_4x4(block)
        # All energy in the DC position; DC = 4 * value for orthonormal T.
        assert coeffs[0, 0, 0] == pytest.approx(40.0)
        assert np.sum(np.abs(coeffs)) == pytest.approx(40.0)

    def test_accepts_single_block(self):
        out = forward_4x4(np.ones((4, 4)))
        assert out.shape == (1, 4, 4)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            forward_4x4(np.ones((3, 5, 5)))
        with pytest.raises(ValueError):
            inverse_4x4(np.ones((3, 3)))


class TestBlockify:
    def test_roundtrip(self):
        mb = np.arange(256).reshape(16, 16)
        assert np.array_equal(unblockify_16x16(blockify_16x16(mb)), mb)

    def test_raster_order(self):
        mb = np.zeros((16, 16))
        mb[0:4, 4:8] = 7  # second block in the top row
        blocks = blockify_16x16(mb)
        assert np.all(blocks[1] == 7)
        assert np.all(blocks[0] == 0)

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            blockify_16x16(np.zeros((8, 8)))
        with pytest.raises(ValueError):
            unblockify_16x16(np.zeros((4, 4, 4)))


class TestSatd:
    def test_zero_for_zero(self):
        assert satd_batch(np.zeros((1, 1, 4, 4))).tolist() == [0.0]

    def test_positive_for_nonzero(self):
        assert satd_batch(np.ones((1, 1, 4, 4)))[0] > 0

    def test_hadamard_sad_identical_blocks(self):
        a = np.random.default_rng(2).integers(0, 256, (16, 16)).astype(np.uint8)
        assert hadamard_sad_batch(a, a[None]).tolist() == [0.0]

    def test_hadamard_sad_monotone_in_distortion(self):
        a = np.full((16, 16), 100, dtype=np.uint8)
        b = np.full((16, 16), 110, dtype=np.uint8)
        c = np.full((16, 16), 150, dtype=np.uint8)
        assert hadamard_sad_batch(a, c[None])[0] > hadamard_sad_batch(a, b[None])[0]

    def test_hadamard_sad_shape_check(self):
        with pytest.raises(ValueError):
            hadamard_sad_batch(np.zeros((8, 8)), np.zeros((1, 8, 8)))


class TestZigzag:
    def test_covers_all_positions_once(self):
        pairs = set(zip(ZIGZAG_4X4[0].tolist(), ZIGZAG_4X4[1].tolist()))
        assert len(pairs) == 16
        assert pairs == {(r, c) for r in range(4) for c in range(4)}

    def test_starts_at_dc(self):
        assert (ZIGZAG_4X4[0][0], ZIGZAG_4X4[1][0]) == (0, 0)

    def test_frequency_monotone_on_antidiagonals(self):
        # The sum r+c (frequency band) must be non-decreasing.
        sums = ZIGZAG_4X4[0] + ZIGZAG_4X4[1]
        assert np.all(np.diff(sums) >= -1)
        assert sums[-1] == 6
