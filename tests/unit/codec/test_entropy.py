"""Unit tests for repro.codec.entropy."""

import numpy as np
import pytest

from repro.codec import kernels
from repro.codec.entropy import (
    BitReader,
    BitWriter,
    block_bits,
    decode_block,
    encode_block,
    encode_blocks,
    read_se,
    read_ue,
    se_bits,
    ue_bits,
    write_se,
    write_ue,
)


class TestBitIO:
    def test_bit_roundtrip(self):
        w = BitWriter()
        bits = [1, 0, 1, 1, 0, 0, 1, 0, 1]
        for b in bits:
            w.write_bit(b)
        r = BitReader(w.getvalue())
        assert [r.read_bit() for _ in range(len(bits))] == bits

    def test_write_bits_msb_first(self):
        w = BitWriter()
        w.write_bits(0b1011, 4)
        w.write_bits(0, 4)
        assert w.getvalue() == bytes([0b10110000])

    def test_bit_count_tracks(self):
        w = BitWriter()
        w.write_bits(0, 13)
        assert w.bit_count == 13

    def test_reader_eof(self):
        r = BitReader(b"\xff")
        r.read_bits(8)
        with pytest.raises(EOFError):
            r.read_bit()

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write_bits(1, -1)


class TestExpGolomb:
    @pytest.mark.parametrize("value", [0, 1, 2, 3, 7, 8, 100, 2**16])
    def test_ue_roundtrip(self, value):
        w = BitWriter()
        write_ue(w, value)
        assert read_ue(BitReader(w.getvalue())) == value

    @pytest.mark.parametrize("value", [0, 1, -1, 2, -2, 63, -64, 1000, -1000])
    def test_se_roundtrip(self, value):
        w = BitWriter()
        write_se(w, value)
        assert read_se(BitReader(w.getvalue())) == value

    def test_ue_rejects_negative(self):
        with pytest.raises(ValueError):
            write_ue(BitWriter(), -1)

    def test_ue_bits_matches_actual(self):
        for v in (0, 1, 5, 31, 32, 255):
            w = BitWriter()
            write_ue(w, v)
            assert w.bit_count == ue_bits(v)

    def test_se_bits_matches_actual(self):
        for v in (-17, -1, 0, 1, 2, 100):
            w = BitWriter()
            write_se(w, v)
            assert w.bit_count == se_bits(v)

    def test_ue_code_lengths(self):
        assert ue_bits(0) == 1  # '1'
        assert ue_bits(1) == 3  # '010'
        assert ue_bits(2) == 3
        assert ue_bits(3) == 5

    def test_smaller_values_never_longer(self):
        lengths = [ue_bits(v) for v in range(64)]
        assert lengths == sorted(lengths)

    def test_malformed_stream_rejected(self):
        # 80 zero bits: leading-zero run exceeds the sanity bound.
        r = BitReader(b"\x00" * 10)
        with pytest.raises(ValueError, match="malformed"):
            read_ue(r)

    def test_sequence_roundtrip(self):
        w = BitWriter()
        values = [(write_ue, 7), (write_se, -3), (write_ue, 0), (write_se, 12)]
        for fn, v in values:
            fn(w, v)
        r = BitReader(w.getvalue())
        assert read_ue(r) == 7
        assert read_se(r) == -3
        assert read_ue(r) == 0
        assert read_se(r) == 12


class TestBlockCoding:
    def _roundtrip(self, block):
        w = BitWriter()
        encode_block(w, block)
        return decode_block(BitReader(w.getvalue()))

    def test_zero_block(self):
        block = np.zeros((4, 4), dtype=np.int32)
        assert np.array_equal(self._roundtrip(block), block)

    def test_dense_block(self):
        rng = np.random.default_rng(0)
        block = rng.integers(-30, 31, (4, 4)).astype(np.int32)
        assert np.array_equal(self._roundtrip(block), block)

    def test_sparse_block(self):
        block = np.zeros((4, 4), dtype=np.int32)
        block[0, 0] = 5
        block[3, 3] = -2
        assert np.array_equal(self._roundtrip(block), block)

    def test_zero_block_costs_one_bit(self):
        w = BitWriter()
        bits = encode_block(w, np.zeros((4, 4), dtype=np.int32))
        assert bits == 1  # ue(0)

    def test_block_bits_matches_encoder(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            block = (rng.integers(0, 4, (4, 4)) * rng.integers(-8, 9, (4, 4))).astype(
                np.int32
            )
            w = BitWriter()
            actual = encode_block(w, block)
            assert block_bits(block) == actual

    def test_sparser_blocks_cheaper(self):
        dense = np.full((4, 4), 3, dtype=np.int32)
        sparse = np.zeros((4, 4), dtype=np.int32)
        sparse[0, 0] = 3
        assert block_bits(sparse) < block_bits(dense)

    def test_shape_check(self):
        with pytest.raises(ValueError):
            encode_block(BitWriter(), np.zeros((8, 8), dtype=np.int32))

    def test_corrupt_nnz_rejected(self):
        w = BitWriter()
        write_ue(w, 17)  # claims 17 nonzero coefficients in a 16-coeff block
        with pytest.raises(ValueError, match="corrupt"):
            decode_block(BitReader(w.getvalue()))

    def test_corrupt_run_overflow_rejected(self):
        w = BitWriter()
        write_ue(w, 2)
        write_ue(w, 15)  # first coeff at the last position
        write_se(w, 1)
        write_ue(w, 0)  # second coeff would overflow
        write_se(w, 1)
        with pytest.raises(ValueError, match="overflow"):
            decode_block(BitReader(w.getvalue()))


def _random_batch(seed, n, magnitude):
    rng = np.random.default_rng(seed)
    return rng.integers(-magnitude, magnitude + 1, size=(n, 4, 4)).astype(np.int32)


def _with_zero_blocks():
    blocks = _random_batch(3, 6, 4)
    blocks[0] = 0
    blocks[3] = 0
    return blocks


#: Batches the vectorized fold must code exactly like the per-block oracle.
_BATCHES = {
    "random-0": _random_batch(0, 24, 32),
    "random-1": _random_batch(1, 24, 32),
    "random-2": _random_batch(2, 24, 32),
    "zero-blocks": _with_zero_blocks(),
    "all-zero": np.zeros((5, 4, 4), dtype=np.int32),
    "empty": np.zeros((0, 4, 4), dtype=np.int32),
    # Levels wide enough to need long exp-Golomb codewords.
    "large-magnitudes": _random_batch(4, 8, 5000),
}


class _CountingWriter(BitWriter):
    def __init__(self):
        super().__init__()
        self.appends = 0

    def append_bits(self, value, width):
        self.appends += 1
        super().append_bits(value, width)


class TestEncodeBlocks:
    """``encode_blocks``: the reference loop vs. the vectorized fold."""

    @staticmethod
    def _encode(backend, blocks):
        with kernels.backend_scope(backend):
            writer = _CountingWriter()
            widths = encode_blocks(writer, blocks)
        return writer.getvalue(), widths, writer.appends

    @pytest.mark.parametrize("name", _BATCHES)
    def test_fold_matches_reference(self, name):
        blocks = _BATCHES[name]
        # The reference body is literally one encode_block per block.
        ref_bytes, ref_widths, _ = self._encode("reference", blocks)
        vec_bytes, vec_widths, _ = self._encode("vectorized", blocks)
        assert vec_bytes == ref_bytes
        assert vec_widths == ref_widths
        assert len(vec_widths) == len(blocks)

    def test_empty_batch_appends_nothing(self):
        data, widths, _ = self._encode("vectorized", _BATCHES["empty"])
        assert (data, widths) == (b"", [])

    def test_fold_decodes_back_to_blocks(self):
        blocks = _random_batch(5, 10, 9)
        data, _, _ = self._encode("vectorized", blocks)
        reader = BitReader(data)
        for block in blocks:
            assert np.array_equal(decode_block(reader), block)

    def test_fold_is_one_bulk_append(self):
        blocks = _random_batch(6, 12, 4)
        # The fold is the point: one append per batch, not one per block.
        assert self._encode("vectorized", blocks)[2] == 1

    def test_shape_check(self):
        with pytest.raises(ValueError):
            encode_blocks(BitWriter(), np.zeros((4, 4), dtype=np.int32))
