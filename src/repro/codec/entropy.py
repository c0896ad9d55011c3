"""Entropy coding: exp-Golomb bit I/O and run-level coefficient coding.

This is a *real, decodable* entropy layer: the encoder writes every
macroblock's syntax elements (mode, MVs, QP delta, coefficients) through
:class:`BitWriter`, and :class:`BitReader` parses them back bit-exactly.
Coefficients use zigzag run-level coding with signed exp-Golomb codes — a
genuine (H.263-era) scheme that preserves the property the paper's
characterization depends on: the bit cost and the branchiness of coding
scale with the number and magnitude of surviving coefficients.

Bit emission is backend-dispatched (see :mod:`repro.codec.kernels`): the
``reference`` backend pushes one bit at a time through
:meth:`BitWriter.write_bit`, while the ``vectorized`` backend appends
whole codes (a whole block batch, in :func:`encode_blocks`) with
big-integer shifts and byte-chunked extends — the buffer contents,
partial-byte state, and ``bit_count`` stay identical by construction
(MSB-first in both).
"""

from __future__ import annotations

import numpy as np

from repro.codec import kernels
from repro.codec.transform import ZIGZAG_4X4

__all__ = [
    "BitWriter",
    "BitReader",
    "write_ue",
    "read_ue",
    "write_se",
    "read_se",
    "ue_bits",
    "se_bits",
    "encode_block",
    "encode_blocks",
    "decode_block",
    "block_bits",
]


class BitWriter:
    """Append-only MSB-first bit buffer."""

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._cur = 0
        self._nbits = 0
        self.bit_count = 0

    def write_bit(self, bit: int) -> None:
        self._cur = (self._cur << 1) | (bit & 1)
        self._nbits += 1
        self.bit_count += 1
        if self._nbits == 8:
            self._bytes.append(self._cur)
            self._cur = 0
            self._nbits = 0

    def write_bits(self, value: int, width: int) -> None:
        if width < 0:
            raise ValueError("width must be >= 0")
        if kernels.is_vectorized():
            self.append_bits(value, width)
            return
        for shift in range(width - 1, -1, -1):
            self.write_bit((value >> shift) & 1)

    def append_bits(self, value: int, width: int) -> None:
        """Append ``width`` bits of ``value`` MSB-first in one operation.

        Equivalent to ``width`` :meth:`write_bit` calls: the byte buffer,
        pending partial byte, and ``bit_count`` end up in the same state.
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
    """MSB-first reader over bytes produced by :class:`BitWriter`."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0  # bit position

    @property
    def bits_read(self) -> int:
        return self._pos

    def read_bit(self) -> int:
        byte_i, bit_i = divmod(self._pos, 8)
        if byte_i >= len(self._data):
            raise EOFError("bitstream exhausted")
        self._pos += 1
        return (self._data[byte_i] >> (7 - bit_i)) & 1

    def read_bits(self, width: int) -> int:
        value = 0
        for _ in range(width):
            value = (value << 1) | self.read_bit()
        return value


def write_ue(writer: BitWriter, value: int) -> None:
    """Unsigned exp-Golomb code."""
    if value < 0:
        raise ValueError(f"ue() requires value >= 0, got {value}")
    code = value + 1
    width = code.bit_length()
    if kernels.is_vectorized():
        # Prefix zeros + code collapse into one (2*width-1)-bit append:
        # the top width-1 bits of the widened code are exactly the zeros.
        writer.append_bits(code, 2 * width - 1)
        return
    writer.write_bits(0, width - 1)
    writer.write_bits(code, width)


def read_ue(reader: BitReader) -> int:
    """Decode one unsigned Exp-Golomb code (inverse of :func:`write_ue`)."""
    zeros = 0
    while reader.read_bit() == 0:
        zeros += 1
        if zeros > 64:
            raise ValueError("malformed exp-Golomb code (leading zeros > 64)")
    value = 1
    for _ in range(zeros):
        value = (value << 1) | reader.read_bit()
    return value - 1


def write_se(writer: BitWriter, value: int) -> None:
    """Signed exp-Golomb code (0, 1, -1, 2, -2, ... mapping)."""
    write_ue(writer, (2 * value - 1) if value > 0 else (-2 * value))


def read_se(reader: BitReader) -> int:
    """Decode one signed Exp-Golomb code (inverse of :func:`write_se`)."""
    code = read_ue(reader)
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


def _zigzag(block: np.ndarray) -> np.ndarray:
    return block[ZIGZAG_4X4]


def _unzigzag(scan: np.ndarray) -> np.ndarray:
    block = np.zeros((4, 4), dtype=np.int32)
    block[ZIGZAG_4X4] = scan
    return block


def encode_block(writer: BitWriter, block: np.ndarray) -> int:
    """Run-level encode one 4x4 integer block; returns bits written.

    Syntax: ue(n_nonzero), then per nonzero coefficient in zigzag order
    ue(zero run before it) and se(level).
    """
    if block.shape != (4, 4):
        raise ValueError(f"expected 4x4 block, got {block.shape}")
    start = writer.bit_count
    scan = _zigzag(np.asarray(block, dtype=np.int64))
    nz_positions = np.nonzero(scan)[0]
    if kernels.is_vectorized():
        # Accumulate the whole block's codes into one big-int append.
        # Each ue code is its widened codeword (prefix zeros included), so
        # concatenating codewords equals the bit-at-a-time emission.
        code = len(nz_positions) + 1
        acc = code
        nbits = 2 * code.bit_length() - 1
        prev = -1
        for pos in nz_positions:
            p = int(pos)
            code = p - prev  # zero run + 1
            w = 2 * code.bit_length() - 1
            acc = (acc << w) | code
            nbits += w
            level = int(scan[p])
            code = (2 * level) if level > 0 else (1 - 2 * level)
            w = 2 * code.bit_length() - 1
            acc = (acc << w) | code
            nbits += w
            prev = p
        writer.append_bits(acc, nbits)
        return writer.bit_count - start
    write_ue(writer, len(nz_positions))
    prev = -1
    for pos in nz_positions:
        write_ue(writer, int(pos - prev - 1))  # zero run
        write_se(writer, int(scan[pos]))
        prev = int(pos)
    return writer.bit_count - start


def encode_blocks(writer: BitWriter, blocks: np.ndarray) -> list[int]:
    """Run-level encode a batch of 4x4 blocks; returns per-block bits.

    Emits exactly the same bitstream as calling :func:`encode_block` on
    each block in order (which is what the ``reference`` backend does).
    The vectorized body computes every codeword and width of the whole
    ``(n, 4, 4)`` batch in NumPy and folds them into **one** big-int
    append: codeword concatenation is associative, so the bitstream is
    unchanged — only the number of ``append_bits`` calls drops.
    """
    arr = np.asarray(blocks, dtype=np.int64)
    if arr.ndim != 3 or arr.shape[-2:] != (4, 4):
        raise ValueError(f"expected (n, 4, 4) blocks, got {arr.shape}")
    if not kernels.is_vectorized():
        return [encode_block(writer, b) for b in arr]
    n = arr.shape[0]
    scans = arr[:, ZIGZAG_4X4[0], ZIGZAG_4X4[1]]  # (n, 16)
    nz_mask = scans != 0
    # np.nonzero walks row-major, so entries arrive grouped by block in
    # scan order — exactly the order the per-block path emits them.
    block_idx, pos = np.nonzero(nz_mask)
    levels = scans[block_idx, pos]
    # Zero-run codes: distance to the previous nonzero in the same block
    # (or to -1 at a block start).
    prev = np.empty_like(pos)
    if pos.size:
        prev[0] = -1
        prev[1:] = np.where(block_idx[1:] == block_idx[:-1], pos[:-1], -1)
    run_codes = pos - prev
    level_codes = np.where(levels > 0, 2 * levels, 1 - 2 * levels)
    header_codes = nz_mask.sum(axis=1) + 1  # (n,) nonzero counts + 1
    # Codeword width 2*bit_length-1; frexp's exponent IS bit_length for
    # positive ints (exact in float64 below 2**53 — levels are int32).
    run_widths = 2 * np.frexp(run_codes.astype(np.float64))[1] - 1
    level_widths = 2 * np.frexp(level_codes.astype(np.float64))[1] - 1
    header_widths = 2 * np.frexp(header_codes.astype(np.float64))[1] - 1
    per_block = header_widths + np.bincount(
        block_idx, weights=run_widths + level_widths, minlength=n
    ).astype(np.int64)

    # Assembly must stay in Python big ints; everything numeric is done,
    # so hand the loop plain lists.
    bi = block_idx.tolist()
    rc, rw = run_codes.tolist(), run_widths.tolist()
    lc, lw = level_codes.tolist(), level_widths.tolist()
    head = header_codes.tolist()
    widths = per_block.tolist()
    total_acc = 0
    total_bits = 0
    j = 0
    n_entries = len(bi)
    for b in range(n):
        acc = head[b]
        while j < n_entries and bi[j] == b:
            acc = (acc << rw[j]) | rc[j]
            acc = (acc << lw[j]) | lc[j]
            j += 1
        total_acc = (total_acc << widths[b]) | acc
        total_bits += widths[b]
    writer.append_bits(total_acc, total_bits)
    return widths


def decode_block(reader: BitReader) -> np.ndarray:
    """Inverse of :func:`encode_block`."""
    n_nonzero = read_ue(reader)
    if n_nonzero > 16:
        raise ValueError(f"corrupt block: {n_nonzero} nonzero coefficients")
    scan = np.zeros(16, dtype=np.int32)
    pos = -1
    for _ in range(n_nonzero):
        run = read_ue(reader)
        pos += run + 1
        if pos >= 16:
            raise ValueError("corrupt block: zigzag position overflow")
        scan[pos] = read_se(reader)
    return _unzigzag(scan)


def block_bits(block: np.ndarray) -> int:
    """Exact bit cost of :func:`encode_block` without materializing bits.

    Used by the mode decision's rate estimator (the "CAVLC-style cost
    model"): cheap to evaluate and exactly equal to the real cost.
    """
    scan = _zigzag(np.asarray(block, dtype=np.int64))
    nz_positions = np.nonzero(scan)[0]
    bits = ue_bits(len(nz_positions))
    prev = -1
    for pos in nz_positions:
        bits += ue_bits(int(pos - prev - 1))
        bits += se_bits(int(scan[pos]))
        prev = int(pos)
    return bits
