"""Property-based tests for the entropy coder (exp-Golomb, block coding),
including the reader-equivalence contract: the tokenizing reader and the
bit-serial oracle (``tests.oracles.SerialBitReader``) return the same
values, the same ``bits_read`` after every read, and the same exception
class at the same read, whatever the bytes and wherever the tokenizer's
windows fall."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.codec import entropy
from repro.codec.entropy import (
    BitReader,
    BitstreamError,
    BitWriter,
    block_bits,
    decode_block,
    decode_blocks,
    decode_tagged_blocks,
    encode_block,
    encode_blocks,
    read_se,
    read_ue,
    se_bits,
    ue_bits,
    write_se,
    write_ue,
)
from tests.oracles import SerialBitReader

blocks_st = arrays(
    dtype=np.int32,
    shape=(4, 4),
    elements=st.integers(min_value=-512, max_value=512),
)


class TestExpGolombProps:
    @given(st.integers(min_value=0, max_value=2**32))
    def test_ue_roundtrip(self, value):
        w = BitWriter()
        write_ue(w, value)
        assert read_ue(BitReader(w.getvalue())) == value

    @given(st.integers(min_value=-(2**31), max_value=2**31))
    def test_se_roundtrip(self, value):
        w = BitWriter()
        write_se(w, value)
        assert read_se(BitReader(w.getvalue())) == value

    @given(st.integers(min_value=0, max_value=2**24))
    def test_ue_bits_exact(self, value):
        w = BitWriter()
        write_ue(w, value)
        assert w.bit_count == ue_bits(value)

    @given(st.integers(min_value=-(2**20), max_value=2**20))
    def test_se_bits_exact(self, value):
        w = BitWriter()
        write_se(w, value)
        assert w.bit_count == se_bits(value)

    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=50))
    def test_sequence_roundtrip(self, values):
        w = BitWriter()
        for v in values:
            write_ue(w, v)
        r = BitReader(w.getvalue())
        assert [read_ue(r) for _ in values] == values

    @given(st.integers(min_value=0, max_value=2**20))
    def test_code_length_odd(self, value):
        # exp-Golomb codes always have odd length: k zeros + (k+1) bits.
        assert ue_bits(value) % 2 == 1


class TestBlockCodingProps:
    @given(blocks_st)
    @settings(max_examples=200)
    def test_block_roundtrip(self, block):
        w = BitWriter()
        encode_block(w, block)
        decoded = decode_block(BitReader(w.getvalue()))
        assert np.array_equal(decoded, block)

    @given(blocks_st)
    def test_block_bits_matches_encoder(self, block):
        w = BitWriter()
        actual = encode_block(w, block)
        assert block_bits(block) == actual

    @given(blocks_st)
    def test_bits_lower_bound(self, block):
        # At least 1 bit (the nnz count) and monotone in nonzero count.
        assert block_bits(block) >= 1

    @given(blocks_st, st.integers(min_value=0, max_value=15))
    def test_zeroing_never_increases_cost(self, block, pos):
        """Dropping one coefficient can only shrink the bit cost."""
        before = block_bits(block)
        zeroed = block.copy()
        zeroed[pos // 4, pos % 4] = 0
        assert block_bits(zeroed) <= before

    @given(st.lists(blocks_st, min_size=1, max_size=8))
    def test_concatenated_blocks_roundtrip(self, blocks):
        w = BitWriter()
        for b in blocks:
            encode_block(w, b)
        r = BitReader(w.getvalue())
        for b in blocks:
            assert np.array_equal(decode_block(r), b)

    @given(st.binary(min_size=0, max_size=64))
    def test_decoder_never_hangs_on_garbage(self, data):
        """Arbitrary bytes either decode or raise cleanly."""
        try:
            decode_block(BitReader(data))
        except (ValueError, EOFError):
            pass


# ---------------------------------------------------------------------------
# Reader equivalence: tokenized vs bit-serial
# ---------------------------------------------------------------------------

#: Window sizes in bytes: 1-3 make nearly every code straddle a boundary
#: or exceed a window, 17 is odd against every code length, 4096 is the
#: shipped constant (one window for everything generated here).
WINDOWS = (1, 2, 3, 17, 4096)

values_st = st.one_of(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=2**40),
    # Around the tokenizer's hand-over point (31 leading zeros).
    st.integers(min_value=2**31 - 3, max_value=2**31 + 1),
)
codes_st = st.lists(
    st.tuples(st.sampled_from(["ue", "se"]), values_st), min_size=1, max_size=60
)
batch_st = arrays(
    dtype=np.int32,
    shape=st.tuples(st.integers(min_value=0, max_value=20), st.just(4), st.just(4)),
    elements=st.one_of(
        st.just(0),
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=-(2**31), max_value=2**31 - 1),
    ),
)
#: One read call on a reader: (name, argument).
ops_st = st.lists(
    st.one_of(
        st.tuples(st.just("ue"), st.just(0)),
        st.tuples(st.just("se"), st.just(0)),
        st.tuples(st.just("bit"), st.just(0)),
        st.tuples(st.just("bits"), st.integers(min_value=0, max_value=20)),
        st.tuples(st.just("block"), st.just(0)),
        st.tuples(st.just("blocks"), st.integers(min_value=0, max_value=6)),
        st.tuples(st.just("tagged"), st.integers(min_value=0, max_value=6)),
    ),
    min_size=1,
    max_size=40,
)


def _readers(data):
    """(bit-serial, tokenizing) readers over ``data``."""
    return SerialBitReader(data), BitReader(data)


def _apply(reader, op, arg):
    """Run one read; returns a comparable outcome (value or error class)."""
    try:
        if op == "ue":
            return read_ue(reader)
        if op == "se":
            return read_se(reader)
        if op == "bit":
            return reader.read_bit()
        if op == "bits":
            return reader.read_bits(arg)
        if op == "block":
            return decode_block(reader).tolist()
        if op == "blocks":
            return decode_blocks(reader, arg).tolist()
        tags, blocks = decode_tagged_blocks(reader, arg)
        return tags, blocks.tolist()
    except BitstreamError as exc:
        return type(exc)


def _assert_same_reads(data, ops, window):
    """Both readers agree on every outcome and position; reading stops at
    the first rejection (a reader's state after one is unspecified beyond
    ``bits_read``, which must still agree)."""
    serial, tokenized = _readers(data)
    with mock.patch.object(entropy, "TOKEN_WINDOW_BYTES", window):
        for step, (op, arg) in enumerate(ops):
            want = _apply(serial, op, arg)
            got = _apply(tokenized, op, arg)
            assert got == want, (step, op, arg)
            assert tokenized.bits_read == serial.bits_read, (step, op, arg)
            if isinstance(want, type):
                break


@pytest.mark.parametrize("window", WINDOWS)
class TestReaderEquivalence:
    @given(codes_st)
    @settings(max_examples=60, deadline=None)
    def test_written_codes_read_back_identically(self, window, codes):
        w = BitWriter()
        for kind, value in codes:
            (write_ue if kind == "ue" else write_se)(w, value)
        serial, tokenized = _readers(w.getvalue())
        with mock.patch.object(entropy, "TOKEN_WINDOW_BYTES", window):
            for kind, value in codes:
                read = read_ue if kind == "ue" else read_se
                assert read(tokenized) == read(serial) == value
                assert tokenized.bits_read == serial.bits_read
        assert serial.bits_read == w.bit_count

    @given(st.lists(batch_st, min_size=1, max_size=4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_block_batches_read_back_identically(self, window, batches, data):
        """``encode_blocks`` batches, read back in differently sized
        ``decode_blocks`` batches: n blocks are n x ``decode_block``."""
        w = BitWriter()
        for batch in batches:
            encode_blocks(w, batch)
        blocks = np.concatenate(batches)
        serial, tokenized = _readers(w.getvalue())
        with mock.patch.object(entropy, "TOKEN_WINDOW_BYTES", window):
            done = 0
            while done < len(blocks):
                n = data.draw(st.integers(min_value=1, max_value=len(blocks) - done))
                got = decode_blocks(tokenized, n)
                want = np.stack([decode_block(serial) for _ in range(n)])
                assert got.dtype == want.dtype == np.int32
                assert np.array_equal(got, want)
                assert np.array_equal(got, blocks[done : done + n])
                assert tokenized.bits_read == serial.bits_read
                done += n
        assert serial.bits_read == w.bit_count

    @given(st.binary(min_size=0, max_size=96))
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_bytes_as_a_ue_stream(self, window, data):
        """Same values, same positions, and the same error class at the
        same code (every byte string ends in a truncation or a malformed
        code sooner or later)."""
        _assert_same_reads(data, [("ue", 0)] * (8 * len(data) + 2), window)

    @given(st.binary(min_size=0, max_size=96), ops_st)
    @settings(max_examples=150, deadline=None)
    def test_interleaved_reads_of_arbitrary_bytes(self, window, data, ops):
        _assert_same_reads(data, ops, window)

    @given(codes_st, batch_st, ops_st)
    @settings(max_examples=100, deadline=None)
    def test_interleaved_reads_of_written_streams(self, window, codes, batch, ops):
        """The same, over bytes that mostly *are* codes and blocks, so the
        batched block path is taken and then knocked out of step by the
        direct bit reads mixed in."""
        w = BitWriter()
        encode_blocks(w, batch)
        for kind, value in codes:
            (write_ue if kind == "ue" else write_se)(w, value % 2**20)
        encode_blocks(w, batch)
        _assert_same_reads(w.getvalue(), ops, window)
