"""Unit tests for repro.codec.entropy."""

import contextlib
from unittest import mock

import numpy as np
import pytest

from repro.codec import entropy
from repro.codec.entropy import (
    BitReader,
    BitstreamError,
    BitWriter,
    BlockBatches,
    TruncatedBitstreamError,
    encode_blocks,
    encode_tagged_blocks,
    read_se,
    read_ue,
    se_bits,
    ue_bits,
    write_se,
    write_ue,
)
from tests.oracles import CODECS, SerialBitReader, decode_blocks, encode_block, write_bit


def _decode_one(reader):
    """One block through the live batch reader."""
    return decode_blocks(reader, 1)[0]


def _decode_tagged(reader, n):
    """``n`` (ue tag, block) pairs, read as the decoder reads them."""
    batches = BlockBatches(reader)
    return batches.read(n, tagged=True), batches.levels()


def _bits_of(block):
    """What ``encode_blocks`` reports for ``block`` coded alone."""
    return encode_blocks(BitWriter(), block[None])[0]


class TestBitIO:
    def test_bit_roundtrip(self):
        w = BitWriter()
        bits = [1, 0, 1, 1, 0, 0, 1, 0, 1]
        for b in bits:
            write_bit(w, b)
        r = BitReader(w.getvalue())
        assert [r.read_bit() for _ in range(len(bits))] == bits

    def test_write_bits_msb_first(self):
        w = BitWriter()
        w.append_bits(0b1011, 4)
        w.append_bits(0, 4)
        assert w.getvalue() == bytes([0b10110000])

    def test_bit_count_tracks(self):
        w = BitWriter()
        w.append_bits(0, 13)
        assert w.bit_count == 13

    def test_reader_eof(self):
        r = BitReader(b"\xff")
        assert [r.read_bit() for _ in range(8)] == [1] * 8
        with pytest.raises(EOFError):
            r.read_bit()

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().append_bits(1, -1)


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
        encode_blocks(w, block[None])
        return _decode_one(BitReader(w.getvalue()))

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
        bits = encode_blocks(w, np.zeros((1, 4, 4), dtype=np.int32))
        assert bits == [1] and w.bit_count == 1  # ue(0)

    def test_block_bits_matches_encoder(self):
        """The bits ``encode_blocks`` reports for a block are the bits it
        wrote, and the one-code-at-a-time writer's."""
        rng = np.random.default_rng(1)
        for _ in range(20):
            block = (rng.integers(0, 4, (4, 4)) * rng.integers(-8, 9, (4, 4))).astype(
                np.int32
            )
            w = BitWriter()
            reported = encode_blocks(w, block[None])[0]
            assert reported == w.bit_count == encode_block(BitWriter(), block)

    def test_sparser_blocks_cheaper(self):
        dense = np.full((4, 4), 3, dtype=np.int32)
        sparse = np.zeros((4, 4), dtype=np.int32)
        sparse[0, 0] = 3
        assert _bits_of(sparse) < _bits_of(dense)

    def test_shape_check(self):
        with pytest.raises(ValueError):
            encode_blocks(BitWriter(), np.zeros((8, 8), dtype=np.int32)[None])

    def test_corrupt_nnz_rejected(self):
        w = BitWriter()
        write_ue(w, 17)  # claims 17 nonzero coefficients in a 16-coeff block
        with pytest.raises(ValueError, match="corrupt"):
            _decode_one(BitReader(w.getvalue()))

    def test_corrupt_run_overflow_rejected(self):
        w = BitWriter()
        write_ue(w, 2)
        write_ue(w, 15)  # first coeff at the last position
        write_se(w, 1)
        write_ue(w, 0)  # second coeff would overflow
        write_se(w, 1)
        with pytest.raises(ValueError, match="overflow"):
            _decode_one(BitReader(w.getvalue()))


def _random_batch(seed, n, magnitude):
    rng = np.random.default_rng(seed)
    return rng.integers(-magnitude, magnitude + 1, size=(n, 4, 4)).astype(np.int32)


def _with_zero_blocks():
    blocks = _random_batch(3, 6, 4)
    blocks[0] = 0
    blocks[3] = 0
    return blocks


#: Batches the fold must code exactly like the per-block oracle.
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
    """``encode_blocks``: the per-block oracle loop vs. the fold."""

    @staticmethod
    def _encode(codec, blocks):
        with CODECS[codec]():
            writer = _CountingWriter()
            widths = entropy.encode_blocks(writer, blocks)
        return writer.getvalue(), widths, writer.appends

    @pytest.mark.parametrize("name", _BATCHES)
    def test_fold_matches_reference(self, name):
        blocks = _BATCHES[name]
        # The oracle is literally one encode_block per block.
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
            assert np.array_equal(_decode_one(reader), block)

    def test_fold_is_one_bulk_append(self):
        blocks = _random_batch(6, 12, 4)
        # The fold is the point: one append per batch, not one per block.
        assert self._encode("vectorized", blocks)[2] == 1

    def test_shape_check(self):
        with pytest.raises(ValueError):
            encode_blocks(BitWriter(), np.zeros((4, 4), dtype=np.int32))


@contextlib.contextmanager
def _window(n_bytes):
    """Run the body with the tokenizer's window shrunk to ``n_bytes``."""
    with mock.patch.object(entropy, "TOKEN_WINDOW_BYTES", n_bytes):
        yield


#: The reader of each codec body: the bit-serial oracle, and src's.
_READERS = {"reference": SerialBitReader, "vectorized": BitReader}


def _reader(codec, data):
    return _READERS[codec](data)


def _count_fills(monkeypatch):
    fills = []
    original = BitReader._fill

    def counting(self):
        fills.append(self._pos)
        return original(self)

    monkeypatch.setattr(BitReader, "_fill", counting)
    return fills


_WINDOWS = (1, 2, 3, 17, 4096)


class TestTypedErrors:
    @pytest.mark.parametrize("codec", CODECS)
    def test_truncation_is_bitstream_and_eof_error(self, codec):
        w = BitWriter()
        write_ue(w, 1000)
        reader = _reader(codec, w.getvalue()[:1])
        with pytest.raises(TruncatedBitstreamError) as excinfo:
            read_ue(reader)
        assert isinstance(excinfo.value, BitstreamError)
        assert isinstance(excinfo.value, EOFError)
        assert isinstance(excinfo.value, ValueError)

    @pytest.mark.parametrize("codec", CODECS)
    def test_malformed_code_is_bitstream_error_not_truncation(self, codec):
        reader = _reader(codec, b"\x00" * 10)
        with pytest.raises(BitstreamError, match="malformed") as excinfo:
            read_ue(reader)
        assert not isinstance(excinfo.value, EOFError)
        assert reader._pos == 65

    @pytest.mark.parametrize("codec", CODECS)
    def test_level_beyond_int32_rejected(self, codec):
        w = BitWriter()
        write_ue(w, 1)
        write_ue(w, 0)
        write_se(w, 2**31)
        with pytest.raises(BitstreamError, match="level out of range"):
            _decode_one(_reader(codec, w.getvalue()))

    def test_argument_errors_stay_plain_value_errors(self):
        with pytest.raises(ValueError) as excinfo:
            write_ue(BitWriter(), -1)
        assert not isinstance(excinfo.value, BitstreamError)


def _write_one(writer, entry, blocks):
    """``blocks`` through one of the block writers; ``encode_block`` is
    ``encode_blocks`` on the first block alone."""
    if entry == "encode_block":
        return entropy.encode_blocks(writer, blocks[:1])
    if entry == "encode_blocks":
        return entropy.encode_blocks(writer, blocks)
    return encode_tagged_blocks(writer, [0] * len(blocks), blocks)


_ENTRIES = ("encode_block", "encode_blocks", "encode_tagged_blocks")


class TestWriterRefusesWhatTheReaderRefuses:
    """The writer writes exactly what the reader reads back, or refuses:
    it never rounds a level, truncates a tag or writes a level the reader
    rejects."""

    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("entry", _ENTRIES)
    @pytest.mark.parametrize("level", [0.7, 2.9, -1.5])
    def test_non_integer_levels_are_a_type_error(self, codec, entry, level):
        writer = BitWriter()
        with CODECS[codec](), pytest.raises(TypeError):
            _write_one(writer, entry, np.full((1, 4, 4), level))
        assert writer.bit_count == 0

    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("entry", _ENTRIES)
    @pytest.mark.parametrize("level", [2**33, 2**31, -(2**31) - 1])
    def test_levels_outside_int32_are_a_value_error(self, codec, entry, level):
        blocks = np.zeros((1, 4, 4), dtype=np.int64)
        blocks[0, 1, 2] = level
        writer = BitWriter()
        with CODECS[codec](), pytest.raises(ValueError, match="int32"):
            _write_one(writer, entry, blocks)
        assert writer.bit_count == 0

    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("entry", _ENTRIES)
    def test_int32_extremes_round_trip(self, codec, entry):
        blocks = np.zeros((2, 4, 4), dtype=np.int64)
        blocks[:, 0, 0] = [2**31 - 1, -(2**31)]
        blocks[:, 3, 3] = [-(2**31), 2**31 - 1]
        with CODECS[codec]():
            writer = BitWriter()
            _write_one(writer, entry, blocks[:1] if entry == "encode_block" else blocks)
            reader = BitReader(writer.getvalue())
            if entry == "encode_tagged_blocks":
                tags, got = _decode_tagged(reader, 2)
                assert tags == [0, 0]
            else:
                got = decode_blocks(reader, 1 if entry == "encode_block" else 2)
        assert np.array_equal(got, blocks[: len(got)])

    @pytest.mark.parametrize("tag", [1.5, 2.0, np.float64(1.0), "1"])
    def test_non_integer_tags_are_a_type_error(self, tag):
        writer = BitWriter()
        with pytest.raises(TypeError):
            encode_tagged_blocks(writer, [tag], np.zeros((1, 4, 4), np.int32))
        assert writer.bit_count == 0

    def test_numpy_integer_tags_are_ints(self):
        blocks = np.zeros((2, 4, 4), np.int32)
        a, b = BitWriter(), BitWriter()
        encode_tagged_blocks(a, np.array([2, 0]), blocks)
        encode_tagged_blocks(b, [2, 0], blocks)
        assert a.getvalue() == b.getvalue()



class TestTokenizedReader:
    """The tokenizing reader against the bit-serial one, on the cases
    where it has to hand over (the property tests cover the bulk)."""

    @staticmethod
    def _written(values):
        w = BitWriter()
        for v in values:
            write_ue(w, v)
        return w.getvalue()

    @pytest.mark.parametrize("window", _WINDOWS)
    def test_values_and_positions_match_bit_serial(self, window):
        values = [0, 1, 2, 7, 0, 0, 300, 2**30 - 2, 2**31 - 2, 2**31 - 1,
                  2**40, 5, 2**64 - 2, 0, 3]
        data = self._written(values)
        serial, tokenized = _reader("reference", data), _reader("vectorized", data)
        with _window(window):
            for v in values:
                assert read_ue(tokenized) == read_ue(serial) == v
                assert tokenized._pos == serial._pos

    def test_reference_reader_never_tokenizes(self, monkeypatch):
        fills = _count_fills(monkeypatch)
        reader = _reader("reference", self._written(range(50)))
        assert [read_ue(reader) for _ in range(50)] == list(range(50))
        assert fills == []

    def test_windows_fill_lazily_and_once(self, monkeypatch):
        fills = _count_fills(monkeypatch)
        data = self._written([0] * 8 * 40)  # 40 bytes of 1-bit codes
        reader = _reader("vectorized", data)
        with _window(10):
            assert read_ue(reader) == 0
            assert fills == [0]  # nothing tokenized before it is asked for
            for _ in range(8 * 40 - 1):
                read_ue(reader)
        assert fills == [0, 80, 160, 240]

    def test_table_values_are_python_ints(self):
        w = BitWriter()
        write_ue(w, 9)
        write_se(w, -4)
        reader = _reader("vectorized", w.getvalue())
        assert type(read_ue(reader)) is int and type(read_se(reader)) is int

    def test_code_straddling_a_window_starts_the_next_window(self, monkeypatch):
        fills = _count_fills(monkeypatch)
        data = self._written([0, 0, 0, 0, 0, 1000, 6])  # 5 bits, then 19 bits
        reader = _reader("vectorized", data)
        with _window(2):
            assert [read_ue(reader) for _ in range(7)] == [0, 0, 0, 0, 0, 1000, 6]
        # The second fill starts at the straddling code's own byte; it does
        # not fit there either (5 + 19 > 16 bits), so it is read bit-serially
        # and the third fill starts behind it.
        assert fills == [0, 5, 24]

    @pytest.mark.parametrize("zeros", [30, 31, 56, 64])
    def test_long_prefixes_hand_over_and_resume(self, zeros, monkeypatch):
        fills = _count_fills(monkeypatch)
        big = 2**zeros - 1  # the shortest code with that many leading zeros
        data = self._written([4, big, 4, 4])
        reader = _reader("vectorized", data)
        assert [read_ue(reader) for _ in range(4)] == [4, big, 4, 4]
        # One fill if the table can hold the code, else one before and one
        # behind the bit-serial read.
        assert len(fills) == (1 if zeros <= 30 else 3)

    def test_prefix_of_65_zeros_rejected_at_the_same_bit(self):
        data = b"\x80" + b"\x00" * 9
        serial, tokenized = _reader("reference", data), _reader("vectorized", data)
        for reader in (serial, tokenized):
            assert read_ue(reader) == 0
            with pytest.raises(BitstreamError, match="malformed"):
                read_ue(reader)
        assert tokenized._pos == serial._pos == 1 + 65

    @pytest.mark.parametrize("window", _WINDOWS)
    def test_truncated_tail_raises_at_the_same_code(self, window):
        data = self._written([3, 3, 3, 2**20])[:-2]
        serial, tokenized = _reader("reference", data), _reader("vectorized", data)
        with _window(window):
            for reader in (serial, tokenized):
                assert [read_ue(reader) for _ in range(3)] == [3, 3, 3]
                with pytest.raises(TruncatedBitstreamError):
                    read_ue(reader)
        assert tokenized._pos == serial._pos == len(data) * 8

    @pytest.mark.parametrize("window", _WINDOWS)
    def test_direct_bit_reads_may_be_mixed_in(self, window):
        data = self._written([5, 0, 12, 9, 1, 77, 3])
        serial, tokenized = _reader("reference", data), _reader("vectorized", data)
        with _window(window):
            for reader in (serial, tokenized):
                got = [read_ue(reader), reader.read_bit(), read_ue(reader),
                       [reader.read_bit() for _ in range(3)], read_ue(reader),
                       read_se(reader)]
                if reader is serial:
                    want, want_pos = got, reader._pos
            assert got == want and tokenized._pos == want_pos

    def test_empty_stream(self):
        with pytest.raises(TruncatedBitstreamError):
            read_ue(_reader("vectorized", b""))


class TestDecodeBlocks:
    """``decode_blocks(r, n)`` is ``n`` one-block reads, on both readers
    and however the batch falls across the tokenizer's windows."""

    @staticmethod
    def _coded(blocks):
        w = BitWriter()
        encode_blocks(w, blocks)
        write_ue(w, 41)  # a trailer the batch must leave unread
        return w.getvalue()

    @pytest.mark.parametrize("window", _WINDOWS)
    @pytest.mark.parametrize("name", _BATCHES)
    def test_batch_matches_per_block_loop(self, name, window):
        blocks = _BATCHES[name]
        data = self._coded(blocks)
        serial = _reader("reference", data)
        want = [_decode_one(serial) for _ in blocks]
        for codec in CODECS:
            reader = _reader(codec, data)
            with _window(window):
                got = decode_blocks(reader, len(blocks))
            assert got.shape == (len(blocks), 4, 4) and got.dtype == np.int32
            assert np.array_equal(got, blocks)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            assert reader._pos == serial._pos
            assert read_ue(reader) == 41

    def test_batch_is_one_pass_over_the_table(self, monkeypatch):
        """No per-block fallback on a well-formed batch: the serial block
        loop is never entered and the window is tokenized once."""
        fills = _count_fills(monkeypatch)
        monkeypatch.setattr(
            entropy, "_decode_block_serial", lambda reader: pytest.fail("fell back")
        )
        blocks = _BATCHES["random-0"]
        reader = _reader("vectorized", self._coded(blocks))
        assert np.array_equal(decode_blocks(reader, len(blocks)), blocks)
        assert fills == [0]

    def test_batch_cut_by_a_window_retokenizes_from_its_first_code(
        self, monkeypatch
    ):
        fills = _count_fills(monkeypatch)
        blocks = _random_batch(7, 16, 6)
        w = BitWriter()
        for _ in range(4):
            encode_blocks(w, blocks)
        data = w.getvalue()
        reader = _reader("vectorized", data)
        with _window(len(data) * 55 // 100):  # 2.2 batches
            for _ in range(4):
                assert np.array_equal(decode_blocks(reader, 16), blocks)
        # The third batch straddles the first window's end, so the second
        # fill starts at that batch's first bit, not at the window's end.
        assert fills == [0, reader._pos // 2]

    @pytest.mark.parametrize("window", _WINDOWS)
    def test_tagged_batch_matches_the_pair_loop(self, window):
        blocks = _random_batch(8, 16, 40)
        blocks[5] = 0
        tags = [i % 3 for i in range(16)]
        w = BitWriter()
        for tag, block in zip(tags, blocks):
            write_ue(w, tag)
            encode_block(w, block)
        write_ue(w, 41)
        data = w.getvalue()
        for codec in CODECS:
            reader = _reader(codec, data)
            with _window(window):
                got_tags, got = _decode_tagged(reader, 16)
            assert got_tags == tags and np.array_equal(got, blocks)
            assert all(type(t) is int for t in got_tags)
            assert read_ue(reader) == 41

    @pytest.mark.parametrize("bad_block", [0, 3, 7])
    @pytest.mark.parametrize("fault", ["count", "overflow", "truncated"])
    def test_malformed_batch_raises_where_the_loop_raises(self, bad_block, fault):
        w = BitWriter()
        for i in range(8):
            if i != bad_block:
                encode_block(w, _random_batch(i, 1, 9)[0])
            elif fault == "count":
                write_ue(w, 17)
            elif fault == "overflow":
                for v in (2, 9, 3, 6):  # second coefficient at 9 + 1 + 6 = 16
                    write_ue(w, v)
                write_se(w, 1)
            else:
                break
        data = w.getvalue()
        outcomes = []
        for codec in CODECS:
            reader = _reader(codec, data)
            with pytest.raises(BitstreamError) as excinfo:
                decode_blocks(reader, 8)
            outcomes.append((type(excinfo.value), str(excinfo.value), reader._pos))
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0][0] is TruncatedBitstreamError) == (fault == "truncated")
