"""Bit-identity between the codec's batched bodies and their scalar oracles.

The batched bodies in ``src`` are an optimization, not an approximation:
every kernel must produce *bitwise identical* outputs to the scalar body
it replaced (``tests/oracles.py``) on the same inputs, so golden outputs
and paper figures are exactly what the scalar codec computed. These tests
run each workload on ``src`` and with the oracles installed
(:func:`tests.oracles.against_oracles`) and compare — first kernel by
kernel on random inputs, then through a full encode, then through a full
decode (frames, metadata and traced kernel calls). Each kernel is
reached through its module attribute, which is where the oracles go.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.codec import deblock, entropy, intra, motion, transform
from repro.codec.decoder import decode
from repro.codec.encoder import encode
from repro.codec.entropy import BitReader, BitstreamError, BitWriter, write_ue
from repro.codec.options import EncoderOptions
from repro.codec.presets import PRESET_NAMES, preset_options
from repro.codec.types import MBMode
from repro.trace.kernels import build_program
from repro.trace.recorder import RecordingTracer
from tests.oracles import against_oracles, assert_identical_values, oracle_codec


def _assert_identical_arrays(results):
    want, got = np.asarray(results["oracle"]), np.asarray(results["src"])
    assert np.array_equal(want, got), "src diverged from its oracle"
    assert want.dtype == got.dtype, "src changed dtype"


# --- per-kernel equivalence -------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_transform_roundtrip_identical(seed):
    rng = np.random.default_rng(seed)
    blocks = rng.uniform(-255, 255, size=(64, 4, 4))
    fwd = against_oracles(lambda: transform.forward_4x4(blocks))
    _assert_identical_arrays(fwd)
    inv = against_oracles(lambda: transform.inverse_4x4(fwd["oracle"]))
    _assert_identical_arrays(inv)


@pytest.mark.parametrize("seed", [3, 4])
def test_satd_identical(seed):
    # Integer-valued diffs, as the codec produces (uint8 pixel differences),
    # then quarter-pel ones (a pixel block minus a bilinear prediction:
    # multiples of 1/16): Hadamard sums of either are exact in float64, so
    # the bodies' different reduction orders still agree bitwise.
    rng = np.random.default_rng(seed)
    for per_pixel in (1, 16):
        bound = 255 * per_pixel
        sets = rng.integers(-bound, bound + 1, size=(8, 16, 4, 4)) / float(per_pixel)
        batch = against_oracles(lambda: transform.satd_batch(sets))
        _assert_identical_arrays(batch)

        diff = rng.integers(-bound, bound + 1, size=(16, 16)) / float(per_pixel)
        single = against_oracles(lambda: transform.satd_16x16(diff))
        assert_identical_values(single)


@pytest.mark.parametrize("seed", [5, 6])
def test_hadamard_sad_batch_identical(seed):
    rng = np.random.default_rng(seed)
    cur = rng.integers(0, 256, size=(16, 16)).astype(np.uint8)
    cands = rng.integers(0, 256, size=(12, 16, 16)).astype(np.uint8)
    results = against_oracles(lambda: transform.hadamard_sad_batch(cur, cands))
    _assert_identical_arrays(results)


def test_entropy_encode_blocks_identical():
    rng = np.random.default_rng(5)
    levels = rng.integers(-6, 7, size=(32, 4, 4)).astype(np.int32)

    def run():
        writer = BitWriter()
        widths = entropy.encode_blocks(writer, levels)
        return writer.getvalue(), list(widths)

    assert_identical_values(against_oracles(run))


def test_entropy_encode_blocks_identical_empty_and_dense():
    rng = np.random.default_rng(6)
    dense = rng.integers(-300, 301, size=(8, 4, 4)).astype(np.int32)
    dense[0] = 0  # all-zero block inside the batch
    zeros = np.zeros((4, 4, 4), dtype=np.int32)  # whole batch empty

    def run():
        writer = BitWriter()
        w1 = entropy.encode_blocks(writer, dense)
        w2 = entropy.encode_blocks(writer, zeros)
        return writer.getvalue(), list(w1), list(w2)

    assert_identical_values(against_oracles(run))


def test_intra_prediction_identical(tiny_video):
    src_frame = tiny_video.frames[0].luma
    recon = tiny_video.frames[1].luma
    for mb_y in range(0, src_frame.shape[0] - 15, 16):
        for mb_x in range(0, src_frame.shape[1] - 15, 16):
            src = src_frame[mb_y : mb_y + 16, mb_x : mb_x + 16]
            p4 = against_oracles(
                lambda: intra.predict_4x4_blocks(src, recon, mb_y, mb_x)
            )
            (pred, sad, tried), (want_pred, want_sad, want_tried) = p4.values()
            assert np.array_equal(want_pred, pred)
            assert (want_sad, want_tried) == (sad, tried)

            p16 = against_oracles(
                lambda: intra.best_intra_16x16(src, recon, mb_y, mb_x)
            )
            want, res = p16["oracle"], p16["src"]
            assert want.mode == res.mode
            assert np.array_equal(want.prediction, res.prediction)
            assert want.sad == res.sad
            assert want.n_modes_tried == res.n_modes_tried


@pytest.mark.parametrize("method", ["dia", "hex", "umh", "esa", "tesa"])
def test_motion_search_identical(tiny_video, method):
    cur_plane = tiny_video.frames[1].luma
    ref_plane = tiny_video.frames[0].luma

    def run():
        ref = motion.PaddedReference.from_plane(ref_plane, pad=24)
        out = []
        for y in range(0, cur_plane.shape[0] - 15, 16):
            for x in range(0, cur_plane.shape[1] - 15, 16):
                res = motion.motion_search(
                    cur_plane[y : y + 16, x : x + 16], ref, y, x, method=method
                )
                out.append((res.mv_x, res.mv_y, res.cost, res.n_points))
        return out

    assert_identical_values(against_oracles(run))


@pytest.mark.parametrize("subme", [3, 7, 9])
def test_subpel_refine_identical(tiny_video, subme):
    cur_plane = tiny_video.frames[1].luma
    ref_plane = tiny_video.frames[0].luma

    def run():
        ref = motion.PaddedReference.from_plane(ref_plane, pad=24)
        out = []
        for y in range(0, cur_plane.shape[0] - 15, 16):
            for x in range(0, cur_plane.shape[1] - 15, 16):
                cur = cur_plane[y : y + 16, x : x + 16]
                start = motion.motion_search(cur, ref, y, x, method="hex")
                res = motion.subpel_refine(cur, ref, y, x, start, subme=subme)
                out.append((res.mv_x, res.mv_y, res.cost, res.n_points))
        return out

    assert_identical_values(against_oracles(run))


@pytest.mark.parametrize("qp", [12, 28, 44])
def test_deblock_plane_identical(tiny_video, qp):
    plane = tiny_video.frames[0].luma
    results = against_oracles(lambda: deblock.deblock_plane(plane, qp=qp))
    (out_plane, edges), (want_plane, want_edges) = results.values()
    assert np.array_equal(want_plane, out_plane)
    assert want_edges == edges


# --- end-to-end encode equivalence ------------------------------------------


def _encode_digest(video, options):
    """Hash everything observable about an encode result."""
    h = hashlib.sha256()
    res = encode(video, options)
    h.update(res.stream.bitstream)
    for frame in res.stream.frames:
        h.update(frame.recon.tobytes())
    for fs in res.frame_stats:
        h.update(
            repr((fs.frame_type, fs.qp, fs.bits, fs.skip_mbs)).encode()
        )
    h.update(repr(res.psnr_db).encode())
    return h.hexdigest()


ENCODE_CONFIGS = [
    pytest.param(EncoderOptions(), id="medium-defaults"),
    pytest.param(
        EncoderOptions(me="umh", subme=9, bframes=2, refs=3), id="umh-subme9"
    ),
    pytest.param(
        EncoderOptions(me="esa", refs=2, trellis=2), id="esa-trellis2"
    ),
    pytest.param(EncoderOptions(me="dia", subme=1, trellis=0), id="dia-fast"),
]


@pytest.mark.parametrize("options", ENCODE_CONFIGS)
def test_encode_bit_identical_across_backends(tiny_video, options):
    """``src`` against the oracles (the name predates the one body)."""
    digests = against_oracles(lambda: _encode_digest(tiny_video, options))
    assert_identical_values(digests)


def test_encode_bit_identical_static_scene(static_video):
    digests = against_oracles(lambda: _encode_digest(static_video, EncoderOptions()))
    assert_identical_values(digests)


# --- end-to-end decode equivalence ------------------------------------------
#
# One decoder serves both bodies; what differs is the reader under it
# (bit-serial under the oracles, tokenized in src; see repro.codec.entropy).
# The matrix below is the round-trip suite's option surface.

DECODE_CONFIGS = (
    [
        pytest.param(preset_options(preset, crf=26, refs=2), id=f"preset-{preset}")
        for preset in PRESET_NAMES
    ]
    + [pytest.param(EncoderOptions(crf=25, refs=1, bframes=1), id="rc-crf")]
    + [
        pytest.param(
            EncoderOptions(crf=24, refs=1, me=me, merange=8, bframes=0),
            id=f"me-{me}",
        )
        for me in ["dia", "hex", "umh", "esa", "tesa"]
    ]
    + [
        pytest.param(
            EncoderOptions(
                crf=crf, refs=3, bframes=bframes, b_adapt=0, scenecut=0,
                partitions="all",
            ),
            id=f"partitions-all-b{bframes}-crf{crf}",
        )
        for bframes, crf in [(0, 12), (0, 30), (1, 20), (3, 12), (3, 40)]
    ]
)


def _count_fills(monkeypatch):
    """Record the bit position of every token-window fill from here on."""
    fills = []
    original = BitReader._fill
    monkeypatch.setattr(
        BitReader, "_fill", lambda self: fills.append(self._pos) or original(self)
    )
    return fills


def _decode_observables(bitstream, *, traced):
    """Everything observable about a decode, as comparable values."""
    tracer = RecordingTracer(build_program()) if traced else None
    result = decode(bitstream, tracer=tracer)
    h = hashlib.sha256()
    for frame in result.video:
        assert frame.luma.dtype == np.uint8
        h.update(frame.luma.tobytes())
    calls = dict(tracer.stream.kernel_calls) if traced else None
    instructions = tracer.stream.total_instructions if traced else None
    return (
        h.hexdigest(),
        [f.luma.shape for f in result.video],
        result.video.fps,
        result.frame_types,
        result.frame_qps,
        calls,
        instructions,
    )


@pytest.mark.parametrize("options", DECODE_CONFIGS)
def test_decode_identical_across_backends(tiny_video, options):
    """``src`` against the oracles (the name predates the one body)."""
    bitstream = encode(tiny_video, options).stream.bitstream
    traced = against_oracles(lambda: _decode_observables(bitstream, traced=True))
    assert_identical_values(traced)
    plain = against_oracles(lambda: _decode_observables(bitstream, traced=False))
    assert_identical_values(plain)
    # Tracing observes the decode; it does not change it. And the same
    # bytes decode to the same output every time.
    assert plain["oracle"][:5] == traced["oracle"][:5]
    again = against_oracles(lambda: _decode_observables(bitstream, traced=False))
    assert again == plain


def test_decode_identical_on_busy_content(busy_video):
    """Scene cuts and heavy motion: intra-4x4 and sub-partitioned
    macroblocks in P and B frames, which the tiny clip rarely picks."""
    options = EncoderOptions(crf=14, refs=2, bframes=2, partitions="all")
    result = encode(busy_video, options)
    modes = {mb.mode for f in result.stream.frames for mb in f.macroblocks}
    assert {MBMode.INTRA_4X4, MBMode.INTER_8X8} <= modes
    traced = against_oracles(
        lambda: _decode_observables(result.stream.bitstream, traced=True)
    )
    assert_identical_values(traced)


def test_decode_identical_on_static_content(static_video):
    """All-SKIP inter frames: macroblocks that are one code long."""
    result = encode(static_video, EncoderOptions(crf=26, refs=1, bframes=0))
    modes = {mb.mode for f in result.stream.frames[1:] for mb in f.macroblocks}
    assert modes == {MBMode.SKIP}
    traced = against_oracles(
        lambda: _decode_observables(result.stream.bitstream, traced=True)
    )
    assert_identical_values(traced)


@pytest.mark.parametrize("window", [1, 7, 64, 300])
def test_decode_identical_wherever_windows_cut(busy_video, monkeypatch, window):
    """The streams above fit one tokenizer window; shrink it so windows
    end inside macroblocks, batches and single codes."""
    options = EncoderOptions(crf=14, refs=2, bframes=2, partitions="all")
    bitstream = encode(busy_video, options).stream.bitstream
    with oracle_codec():
        want = _decode_observables(bitstream, traced=True)
    monkeypatch.setattr(entropy, "TOKEN_WINDOW_BYTES", window)
    assert _decode_observables(bitstream, traced=True) == want


def test_well_formed_stream_is_served_from_the_table(busy_video, monkeypatch):
    """The speed-up, counted instead of timed: decoding a stream the
    encoder wrote never reads a code or a block bit-serially, and
    tokenizes each window once (plus one re-fill per batch a window's end
    cuts)."""
    options = EncoderOptions(crf=8, refs=2, bframes=2, partitions="all")
    bitstream = encode(busy_video, options).stream.bitstream
    n_windows = -(-len(bitstream) // entropy.TOKEN_WINDOW_BYTES)
    assert n_windows >= 3
    fills = _count_fills(monkeypatch)

    def bit_serial(reader):
        raise AssertionError("a well-formed stream left the token table")

    monkeypatch.setattr(entropy, "_read_ue_serial", bit_serial)
    monkeypatch.setattr(entropy, "_decode_block_serial", bit_serial)
    assert len(decode(bitstream).video) == len(busy_video)
    assert n_windows <= len(fills) <= n_windows + 2


def test_corrupt_header_costs_at_most_one_window_fill(monkeypatch):
    """Windows are tokenized lazily: a stream rejected in its header is
    rejected after one fill, however long its tail (counted, not timed)."""
    fills = _count_fills(monkeypatch)
    tail = bytes(1 << 20)
    writer = BitWriter()
    for value in (48, 32, 30_000, 200_000):  # n_frames beyond the sanity bound
        write_ue(writer, value)
    for value in (0, 0, 0):
        write_ue(writer, value)
    implausible = writer.getvalue() + tail
    for data, match in [
        (implausible, "implausible"),
        (tail, "malformed"),  # no header at all: 65 zero bits
        (b"\xff" + tail, "corrupt stream header"),  # width = 0
    ]:
        fills.clear()
        with pytest.raises(BitstreamError, match=match):
            decode(data)
        assert len(fills) <= 1, (match, fills)
    assert len(fills) == 1  # and the tokenized path did run


def test_oracles_replace_every_binding():
    """Under ``oracle_codec`` no ``repro`` module or class still holds a
    body an oracle replaces — the guard that an encode run there is the
    oracles' encode, whoever imported what by name."""
    import sys

    from tests.oracles import _CODEC_ORACLES

    originals = {id(vars(owner)[name]): name for owner, name, _ in _CODEC_ORACLES}
    with oracle_codec():
        for owner, name, oracle in _CODEC_ORACLES:
            assert vars(owner)[name] is oracle, name
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("repro."):
                for value in vars(module).values():
                    name = originals.get(id(value))
                    assert name is None, (module_name, name)
    for owner, name, oracle in _CODEC_ORACLES:
        assert vars(owner)[name] is not oracle, name
