"""Entropy coding: exp-Golomb bit I/O and run-level coefficient coding.

This is a *real, decodable* entropy layer: the encoder writes every
syntax element (stream and frame headers, mode, reference, MVs, QP
delta, coefficient counts, runs and levels, chroma modes) through
:class:`BitWriter` as a ue/se exp-Golomb code, and :class:`BitReader`
parses them back bit-exactly. Coefficients use zigzag run-level coding
with signed exp-Golomb codes — a genuine (H.263-era) scheme that
preserves the property the paper's characterization depends on: the bit
cost and the branchiness of coding scale with the number and magnitude
of surviving coefficients.

**Writing** appends whole codes (a whole block batch, in
:func:`encode_blocks`) with big-integer shifts and byte-chunked extends.
Buffer contents, partial-byte state and ``bit_count`` are what writing
one bit at a time would leave behind (MSB-first); the bit-at-a-time
writer is the oracle in ``tests/oracles.py``.

**Reading.** Nothing but exp-Golomb codes is ever written, so code
boundaries are context-free: a code that starts at bit ``s`` and whose
first 1 bit is at ``o`` ends at ``2*o - s + 1``, whatever it means.
The reader *tokenizes*: when a code is asked for that its table does not
hold, it unpacks the next :data:`TOKEN_WINDOW_BYTES` of the stream, finds
every bit's next 1 bit, walks the boundary chain from the current
position, and computes all ue values and their se mappings in array
operations. :func:`read_ue` / :func:`read_se` are then table lookups, and
:class:`BlockBatches` places the coefficients of every batch a table
holds with one scatter. Windows are filled lazily, so a stream rejected in
its header costs one fill however long it is, and a fill's per-bit arrays
are bounded by the window.

The tokenizer takes only what it can take blindly: complete codes whose
zero prefix is at most :data:`_TOKEN_MAX_ZEROS` bits (so every table value
fits ``int32``). At the first code it cannot take — a longer prefix, a
code cut off by the end of the stream or longer than a window, a position
moved by a direct ``read_bit`` — the read is handed to the bit-serial loop
(:func:`_read_ue_serial`), and tokenizing resumes behind it. A batch the
table cannot hold goes to the per-block loop, and one whose scatter finds
it malformed is replayed through it. Every rejection is therefore raised
by one piece of code, the bit-serial one, and the reader's bit position
means the same after every code whichever path read it.

**Errors.** Bytes that are not a stream this codec wrote raise
:class:`BitstreamError` (a ``ValueError``); running off the end raises
its subclass :class:`TruncatedBitstreamError` (also an ``EOFError``).
``ValueError`` raised for a bad *argument* (negative width, a block of
the wrong shape, a level outside int32) stays a plain ``ValueError``; the
block writers take integer levels and tags only (``TypeError``), so
they never write what the reader refuses or round what it would read.
"""

from __future__ import annotations

import operator

import numpy as np

from repro.codec.transform import ZIGZAG_4X4

__all__ = [
    "BitstreamError",
    "TruncatedBitstreamError",
    "BitWriter",
    "BitReader",
    "BlockBatches",
    "TOKEN_WINDOW_BYTES",
    "write_ue",
    "read_ue",
    "write_se",
    "read_se",
    "ue_bits",
    "se_bits",
    "encode_blocks",
    "encode_tagged_blocks",
    "decode_blocks",
]

#: Bytes of stream the tokenizing reader unpacks per fill. Part of the
#: design, not a tuning option: a fill holds ~25 bytes of arrays per bit,
#: so tokenizing an 80 KiB stream at once peaks 15 MiB above the bit-serial
#: reader (a 4 KiB window: 1 MiB) and decodes no faster, while a 1 KiB
#: window pays the per-fill overhead often enough to decode ~9% slower.
TOKEN_WINDOW_BYTES = 4096

#: Longest zero prefix the tokenizer takes. Such a code is below 2**31,
#: so ue and se values fit int32 (the coefficient dtype); longer codes are
#: legal up to :data:`_MAX_ZEROS` but only the bit-serial loop reads them.
_TOKEN_MAX_ZEROS = 30
#: Longest zero prefix of a well-formed code.
_MAX_ZEROS = 64

#: Raster offset (row * 4 + col) of each zigzag scan position.
_ZIGZAG_FLAT = ZIGZAG_4X4[0] * 4 + ZIGZAG_4X4[1]
#: Width of ue(r)'s codeword r + 1, for every zero run r of a 4x4 block.
_RUN_WIDTHS = [0] + [2 * code.bit_length() - 1 for code in range(1, 17)]

_INT32_MIN, _INT32_MAX = -(2**31), 2**31 - 1


class BitstreamError(ValueError):
    """The bytes are not a stream this codec wrote."""


class TruncatedBitstreamError(BitstreamError, EOFError):
    """The stream ends inside a syntax element."""


class BitWriter:
    """Append-only MSB-first bit buffer."""

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._cur = 0
        self._nbits = 0
        self.bit_count = 0

    def append_bits(self, value: int, width: int) -> None:
        """Append ``width`` bits of ``value`` MSB-first in one operation.

        Equivalent to ``width`` one-bit appends: the byte buffer, pending
        partial byte, and ``bit_count`` end up in the same state.
        """
        if width < 0:
            raise ValueError("width must be >= 0")
        if width == 0:
            return
        acc = (self._cur << width) | (value & ((1 << width) - 1))
        nbits = self._nbits + width
        self.bit_count += width
        nbytes, rem = divmod(nbits, 8)
        if nbytes:
            self._bytes += (acc >> rem).to_bytes(nbytes, "big")
        self._cur = acc & ((1 << rem) - 1)
        self._nbits = rem

    def getvalue(self) -> bytes:
        """Byte-aligned contents (zero padded in the final byte)."""
        out = bytearray(self._bytes)
        if self._nbits:
            out.append(self._cur << (8 - self._nbits))
        return bytes(out)


class BitReader:
    """MSB-first reader over bytes produced by :class:`BitWriter`.

    ``_pos`` is the one authoritative position. The reader also holds a
    *token table* for one window of the stream: code ``i`` of the table spans
    bits ``_bounds[i]`` to ``_bounds[i + 1]`` and has the values
    ``_ue[i]`` / ``_se[i]``; ``_cursor`` is the next code to hand out. The
    table is in step only while ``_bounds[_cursor] == _pos``, which a
    direct :meth:`read_bit` breaks and the next fill restores.
    """

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0  # bit position
        self._bounds = np.zeros(1, dtype=np.int64)
        self._ue = self._se = np.zeros(0, dtype=np.int64)
        self._cursor = 0

    def read_bit(self) -> int:
        byte_i, bit_i = divmod(self._pos, 8)
        if byte_i >= len(self._data):
            raise TruncatedBitstreamError("bitstream exhausted")
        self._pos += 1
        return (self._data[byte_i] >> (7 - bit_i)) & 1

    def _fill(self) -> bool:
        """Tokenize the window that starts at the current position.

        Returns ``False``, leaving the table as it was, when not even the
        code at the current position can be taken (see the module
        docstring); the caller then reads it bit-serially.
        """
        first_byte = self._pos >> 3
        window = np.frombuffer(self._data, dtype=np.uint8)[
            first_byte : first_byte + TOKEN_WINDOW_BYTES
        ]
        bits = np.unpackbits(window)
        n_bits = bits.size
        index = np.arange(n_bits, dtype=np.int32)
        # next_one[i]: the first 1 bit at or after bit i (n_bits if none).
        next_one = np.minimum.accumulate(
            np.where(bits, index, np.int32(n_bits))[::-1]
        )[::-1]
        zeros = next_one - index
        # The length of the code that would start at each bit, or 0 where
        # the table cannot hold it: prefix too long, or cut by the window.
        lengths = 2 * zeros + 1
        lengths[(zeros > _TOKEN_MAX_ZEROS) | (index + lengths > n_bits)] = 0
        # The boundary chain is the one sequential step. A bytes object makes
        # each hop an index that allocates nothing; the extra 0 stops a walk
        # that reaches the window's end.
        hop = lengths.astype(np.uint8).tobytes() + b"\0"
        starts = []
        start = self._pos & 7
        while length := hop[start]:
            starts.append(start)
            start += length
        if not starts:
            return False

        starts_arr = np.fromiter(starts, dtype=np.int64, count=len(starts))
        ones = next_one[starts_arr]
        # The code proper is the 1 bit and the zeros[start] bits behind it:
        # at most 31 bits at a bit offset of at most 7, so it lies inside the
        # big-endian 8-byte word that starts at the 1 bit's byte.
        padded = np.zeros(window.size + 8, dtype=np.uint8)
        padded[: window.size] = window
        words = np.ndarray(
            (window.size,), dtype=">u8", buffer=padded, strides=(1,)
        )[ones >> 3].astype(np.uint64)
        codes = (
            (words << (ones & 7).astype(np.uint64))
            >> (63 - zeros[starts_arr]).astype(np.uint64)
        ).astype(np.int64)
        magnitudes = codes >> 1
        self._ue = codes - 1
        self._se = np.where(codes & 1, -magnitudes, magnitudes)
        self._bounds = np.append(starts_arr, start) + (first_byte << 3)
        self._cursor = 0
        return True

    def _next_token(self) -> int:
        """Consume the code at the current position; return its table
        index, or -1 (nothing consumed) if it must be read bit-serially."""
        i = self._cursor
        if i >= len(self._ue) or self._bounds.item(i) != self._pos:
            if not self._fill():
                return -1
            i = 0
        self._cursor = i + 1
        self._pos = self._bounds.item(i + 1)
        return i


def write_ue(writer: BitWriter, value: int) -> None:
    """Unsigned exp-Golomb code."""
    if value < 0:
        raise ValueError(f"ue() requires value >= 0, got {value}")
    code = value + 1
    # Prefix zeros + code collapse into one (2*width-1)-bit append: the
    # top width-1 bits of the widened code are exactly the zeros.
    writer.append_bits(code, 2 * code.bit_length() - 1)


def _read_ue_serial(reader: BitReader) -> int:
    """The bit-serial exp-Golomb read: the one place a malformed or
    truncated code is rejected."""
    zeros = 0
    while reader.read_bit() == 0:
        zeros += 1
        if zeros > _MAX_ZEROS:
            raise BitstreamError(
                f"malformed exp-Golomb code (leading zeros > {_MAX_ZEROS})"
            )
    value = 1
    for _ in range(zeros):
        value = (value << 1) | reader.read_bit()
    return value - 1


def read_ue(reader: BitReader) -> int:
    """Decode one unsigned Exp-Golomb code (inverse of :func:`write_ue`)."""
    if (i := reader._next_token()) >= 0:
        return reader._ue.item(i)
    return _read_ue_serial(reader)


def write_se(writer: BitWriter, value: int) -> None:
    """Signed exp-Golomb code (0, 1, -1, 2, -2, ... mapping)."""
    write_ue(writer, (2 * value - 1) if value > 0 else (-2 * value))


def read_se(reader: BitReader) -> int:
    """Decode one signed Exp-Golomb code (inverse of :func:`write_se`)."""
    if (i := reader._next_token()) >= 0:
        return reader._se.item(i)
    code = _read_ue_serial(reader)
    magnitude = (code + 1) // 2
    return magnitude if code % 2 == 1 else -magnitude


def ue_bits(value: int) -> int:
    """Bit cost of ue(value) without writing."""
    if value < 0:
        raise ValueError("ue cost requires value >= 0")
    return 2 * (value + 1).bit_length() - 1


def se_bits(value: int) -> int:
    """Bit cost of se(value) without writing."""
    return ue_bits((2 * value - 1) if value > 0 else (-2 * value))


def _unzigzag(scan: np.ndarray) -> np.ndarray:
    block = np.zeros((4, 4), dtype=np.int32)
    block[ZIGZAG_4X4] = scan
    return block


def _checked_batch(blocks: np.ndarray) -> np.ndarray:
    """``blocks`` as an ``(n, 4, 4)`` array, refused unless every level is
    an integer the reader takes back: ``TypeError`` for a non-integer
    dtype, ``ValueError`` for a bad shape or a level outside int32."""
    arr = np.asarray(blocks)
    if arr.ndim != 3 or arr.shape[-2:] != (4, 4):
        raise ValueError(f"expected (n, 4, 4) blocks, got {arr.shape}")
    if arr.dtype.kind not in "iu":
        raise TypeError(f"coefficient levels must be integers, got {arr.dtype}")
    if arr.size and not np.can_cast(arr.dtype, np.int32) and (
        arr.min() < _INT32_MIN or arr.max() > _INT32_MAX
    ):
        raise ValueError("coefficient level out of int32 range")
    return arr


def encode_blocks(writer: BitWriter, blocks: np.ndarray) -> list[int]:
    """Run-level encode a batch of 4x4 blocks; returns per-block bits.

    Syntax per block: ue(n_nonzero), then per nonzero coefficient in
    zigzag order ue(zero run before it) and se(level). Emits exactly the
    bitstream of coding each block in order, one code at a time, but folds
    every codeword of the whole ``(n, 4, 4)`` batch into **one** big-int
    append: codeword concatenation is associative, so the bitstream is
    unchanged — only the number of ``append_bits`` calls drops.
    """
    return _fold_batch(writer, _checked_batch(blocks), None)


def encode_tagged_blocks(
    writer: BitWriter, tags: list[int], blocks: np.ndarray
) -> list[int]:
    """Encode ``n`` (ue tag, block) pairs, e.g. an intra-4x4 macroblock's
    (mode, block) pairs; returns per-pair bits. The write side of
    ``BlockBatches.read(n, tagged=True)``.

    Emits exactly what ``n`` rounds of :func:`write_ue` then a one-block
    :func:`encode_blocks` emit, as :func:`encode_blocks`' fold with each
    tag's codeword in front of its block.
    """
    arr = _checked_batch(blocks)
    tags = [operator.index(tag) for tag in tags]  # TypeError for a non-int
    if len(tags) != len(arr):
        raise ValueError(f"{len(tags)} tags for {len(arr)} blocks")
    if tags and min(tags) < 0:
        raise ValueError(f"ue() requires value >= 0, got {min(tags)}")
    return _fold_batch(writer, arr, tags)


def _fold_batch(
    writer: BitWriter, arr: np.ndarray, tags: list[int] | None
) -> list[int]:
    """One big-int append for a whole batch (each block behind its ue tag
    if ``tags``); returns per-block bits, tag included.

    NumPy finds the nonzero levels and their se() codewords; one Python
    loop then walks those alone, so a block with none costs its header and
    nothing more."""
    n = len(arr)
    scans = arr.reshape(n, 16)[:, _ZIGZAG_FLAT]
    # Flat places arrive grouped by block (place >> 4), in scan order
    # (place & 15) — exactly the order the per-block path emits them.
    places = np.flatnonzero(scans)
    levels = scans.take(places)
    # se(level)'s codeword: 2|level|, plus 1 for a negative level (int64:
    # 2|level| of an int32 level needs 33 bits).
    codes = ((np.abs(levels, dtype=np.int64) << 1) | (levels < 0)).tolist()
    places = places.tolist()
    # Every block starts as if it had no nonzero level: its tag's codeword,
    # then ue(0), the one bit "1".
    if tags is None:
        heads, widths = [1] * n, [1] * n
    else:
        heads = [(tag + 1) << 1 | 1 for tag in tags]
        widths = [2 * (tag + 1).bit_length() for tag in tags]
    # A sentinel in block n closes the last block; block n is never closed.
    places.append(n << 4)
    codes.append(1)
    run_widths = _RUN_WIDTHS
    last = places[0] | 15  # the current block's last place
    prev = last - 16
    body = body_bits = count = 0
    for place, code in zip(places, codes):
        if place > last:
            # Swap the block's trailing ue(0) for ue(count) (codeword
            # count + 1), then its codes.
            block = last >> 4
            count += 1
            width = 2 * count.bit_length() - 1
            heads[block] = ((heads[block] >> 1 << width | count) << body_bits) | body
            widths[block] += width - 1 + body_bits
            last = place | 15
            prev = last - 16
            body = body_bits = count = 0
        run = place - prev  # codeword of ue(zero run): zero run + 1
        prev = place
        width = 2 * code.bit_length() - 1
        pair_width = run_widths[run] + width
        body = (body << pair_width) | (run << width) | code
        body_bits += pair_width
        count += 1
    acc = 0
    for head, width in zip(heads, widths):
        acc = (acc << width) | head
    writer.append_bits(acc, sum(widths))
    return widths


def _decode_block_serial(reader: BitReader) -> np.ndarray:
    """One block, one code at a time: the loop that raises every
    block-level rejection."""
    n_nonzero = read_ue(reader)
    if n_nonzero > 16:
        raise BitstreamError(f"corrupt block: {n_nonzero} nonzero coefficients")
    scan = np.zeros(16, dtype=np.int32)
    pos = -1
    for _ in range(n_nonzero):
        run = read_ue(reader)
        pos += run + 1
        if pos >= 16:
            raise BitstreamError("corrupt block: zigzag position overflow")
        level = read_se(reader)
        if not _INT32_MIN <= level <= _INT32_MAX:
            raise BitstreamError("corrupt block: coefficient level out of range")
        scan[pos] = level
    return _unzigzag(scan)


def _decode_batch_serial(
    reader: BitReader, n: int, tagged: bool
) -> tuple[list[int], np.ndarray]:
    tags = []
    blocks = np.zeros((n, 4, 4), dtype=np.int32)
    for b in range(n):
        if tagged:
            tags.append(read_ue(reader))
        blocks[b] = _decode_block_serial(reader)
    return tags, blocks


def _count_from_table(
    reader: BitReader, n: int, tagged: bool
) -> tuple[list[int], list[int], list[int]] | None:
    """Consume ``n`` blocks (each behind a ue tag if ``tagged``) from the
    token table, reading only tags and nonzero counts: returns the tags,
    each block's count-code index and its count. ``None`` (nothing read):
    the table cannot hold the batch, or a count exceeds 16."""
    lead = 1 if tagged else 0
    while True:
        first = i = reader._cursor
        ue = reader._ue.item
        n_tokens = len(reader._ue)
        if first < n_tokens and reader._bounds.item(first) == reader._pos:
            tags: list[int] = []
            heads: list[int] = []
            counts: list[int] = []
            for _ in range(n):
                i += lead
                if i >= n_tokens:
                    break
                n_nonzero = ue(i)
                if n_nonzero > 16:
                    return None
                if tagged:
                    tags.append(ue(i - 1))
                heads.append(i)
                counts.append(n_nonzero)
                i += 1 + 2 * n_nonzero
            if len(counts) == n and i <= n_tokens:
                break
            if first == 0:
                return None  # a table filled from here does not hold the batch
        # The batch runs past the table: tokenize again from the batch's
        # first code so that one table holds all of it.
        if not reader._fill():
            return None
    reader._cursor = i
    reader._pos = reader._bounds.item(i)
    return tags, heads, counts


class BlockBatches:
    """Coefficient batches read now, placed into one array later: one
    scatter per token table, not per batch. A batch whose zero runs pass
    scan position 15 is found there and replayed through the per-block
    loop, which raises — so a caller that meets an error after reading a
    batch calls :meth:`levels` first: the overflow is the earlier error."""

    def __init__(self, reader: BitReader) -> None:
        self._reader = reader
        # Per token table: its ue, se, batches (first block, bit, n, tagged),
        # and per block its count code's index, its count and its row.
        self._tables: list[tuple] = []
        self._serial: list[tuple[int, np.ndarray]] = []  # (first row, blocks)
        self.n_blocks = 0

    def read(self, n: int, tagged: bool = False) -> list[int]:
        """Consume one batch as :func:`decode_blocks` would; returns the tags."""
        reader, row, start = self._reader, self.n_blocks, self._reader._pos
        self.n_blocks += n
        counted = _count_from_table(reader, n, tagged)
        if counted is None:
            tags, blocks = _decode_batch_serial(reader, n, tagged)
            self._serial.append((row, blocks))
            return tags
        if not self._tables or self._tables[-1][0] is not reader._ue:
            self._tables.append((reader._ue, reader._se, [], [], [], []))
        _, _, batches, heads, counts, rows = self._tables[-1]
        batches.append((len(counts), start, n, tagged))
        heads += counted[1]
        counts += counted[2]
        rows += range(row, row + n)
        return counted[0]

    def levels(self) -> np.ndarray:
        """Every block read so far, ``(n_blocks, 4, 4)`` int32."""
        flat = np.zeros(self.n_blocks * 16, dtype=np.int32)
        for ue, se, batches, heads, counts, rows in self._tables:
            total = sum(counts)
            if not total:
                continue
            block_of = np.repeat(np.arange(len(counts)), counts)
            before = np.cumsum(counts) - counts  # coefficients ahead of a block
            # Coefficient k: the run/level pair 1 + 2k codes behind its count
            # code, at the scan position its block's runs so far reach.
            run_at = (np.array(heads) + 1 - 2 * before)[block_of]
            run_at += 2 * np.arange(total)
            ends = np.zeros(total + 1, dtype=np.int64)
            np.cumsum(ue[run_at] + 1, out=ends[1:])
            scan_pos = ends[1:] - 1 - ends[before][block_of]
            if scan_pos.max() > 15:
                bad = block_of[np.argmax(scan_pos > 15)]
                # Replay the batch holding block ``bad``: the per-block loop raises.
                _, self._reader._pos, n, tagged = max(b for b in batches if b[0] <= bad)
                _decode_batch_serial(self._reader, n, tagged)
                raise AssertionError("the per-block loop took a refused batch")
            at = np.array(rows)[block_of] * 16 + _ZIGZAG_FLAT[scan_pos]
            flat[at] = se[run_at + 1]
        levels = flat.reshape(-1, 4, 4)
        for row, blocks in self._serial:
            levels[row : row + len(blocks)] = blocks
        return levels


def decode_blocks(reader: BitReader, n: int) -> np.ndarray:
    """Decode a batch of ``n`` 4x4 blocks; inverse of :func:`encode_blocks`.

    Reads exactly what ``n`` one-block calls read; the tokenizing reader
    fills the whole ``(n, 4, 4)`` batch from its table in one pass of
    array operations.
    """
    batches = BlockBatches(reader)
    batches.read(n)
    return batches.levels()
