"""The macroblock loop against its scalar oracles.

``src`` evaluates per macroblock what the oracles (``tests/oracles.py``)
evaluate per partition, per 4x4 block or per call: sub-partitions share
one difference block per displacement, the intra-4x4 chain runs a
diagonal at a time and emits one tagged batch, the plane fit / SATD / i4x4
probe are folded. Each is held here to ``==`` with its oracle on generated
inputs — kernel by kernel, then through whole encodes on content that
makes the encoder pick the modes those kernels serve, with the oracles
patched into every consumer module's namespace (``oracle_codec``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.codec import intra, transform
from repro.codec.decoder import decode
from repro.codec.encoder import Encoder, _FrameContext
from repro.codec.entropy import (
    BitWriter,
    encode_tagged_blocks,
    write_ue,
)
from repro.codec.mbdecision import search_partitions
from repro.codec.motion import PaddedReference
from repro.codec.options import EncoderOptions
from repro.codec.tracemodel import EncodeTrace
from repro.codec.transform import blockify_16x16, forward_4x4, inverse_4x4
from repro.codec.types import FrameType, MBMode, MotionVector
from repro.trace.kernels import build_program
from repro.trace.recorder import RecordingTracer
from repro.video.frame import Frame, FrameSequence
from repro.video.synthetic import SceneSpec, generate_scene
from tests.oracles import (
    against_oracles,
    assert_identical_values,
    assert_same_events,
    encode_block,
)

HEIGHT, WIDTH = 48, 64  # 3 x 4 macroblocks: corners, edges and an interior
#: One macroblock (pixel position) per frame-edge class.
EDGE_CLASSES = {
    "corner": (0, 0),
    "top-row": (0, 32),
    "left-column": (16, 0),
    "interior": (16, 32),
}
CONTENT = ("noise", "flat", "rows", "columns", "ramp", "blocky")


def _plane(kind: str, seed: int, height: int = HEIGHT, width: int = WIDTH):
    """A uint8 plane of one content kind (ties, pure V / H winners, DC)."""
    rng = np.random.default_rng(seed)
    if kind == "noise":
        plane = rng.integers(0, 256, (height, width))
    elif kind == "flat":
        plane = np.full((height, width), rng.integers(0, 256))
    elif kind == "rows":
        plane = np.repeat(rng.integers(0, 256, (height, 1)), width, axis=1)
    elif kind == "columns":
        plane = np.repeat(rng.integers(0, 256, (1, width)), height, axis=0)
    elif kind == "ramp":
        yy, xx = np.mgrid[0:height, 0:width]
        plane = yy * rng.integers(-6, 7) + xx * rng.integers(-6, 7) + 128
        plane = plane + rng.integers(-2, 3, plane.shape)
    else:  # blocky: 4x4 tiles, so neighbouring blocks disagree
        tiles = rng.integers(0, 256, (height // 4, width // 4))
        plane = np.kron(tiles, np.ones((4, 4), dtype=np.int64))
    return np.clip(plane, 0, 255).astype(np.uint8)


content_st = st.tuples(st.sampled_from(CONTENT), st.integers(0, 2**16))


# --- the law the wavefront rests on -----------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    arrays(
        np.float64,
        (16, 4, 4),
        elements=st.floats(-4096.0, 4096.0, allow_nan=False, width=64),
    )
)
def test_batched_transforms_are_the_single_block_calls(blocks):
    """``forward_4x4`` / ``inverse_4x4`` of a batch are, bit for bit, the
    single-block calls, for every batch size a diagonal (1-4) or a
    macroblock (16) uses. A law of ``src``, which batches: the oracle codes
    one block at a time and its ``einsum`` makes no such promise."""
    for fn in (forward_4x4, inverse_4x4):
        single = [fn(blocks[i : i + 1])[0] for i in range(16)]
        for n in range(1, 17):
            batch = fn(blocks[:n])
            for i in range(n):
                assert batch[i].tobytes() == single[i].tobytes(), (n, i)


# --- (1) partitions share displacements --------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    content=content_st,
    shift=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    noise=st.integers(0, 12),
    mb=st.sampled_from(sorted(EDGE_CLASSES.values()) + [(32, 48), (32, 0), (0, 48)]),
    parent=st.tuples(st.integers(-64, 64), st.integers(-64, 64)),
    pred=st.tuples(st.integers(-12, 12), st.integers(-12, 12)),
    extreme=st.booleans(),
)
@pytest.mark.parametrize("size", [8, 4])
def test_search_partitions_identical(
    size, content, shift, noise, mb, parent, pred, extreme
):
    """Macroblocks on every frame edge; parent MVs anywhere in ±merange
    (quarter-pel, so with fractional parts) and pinned to ±merange."""
    kind, seed = content
    ref_plane = _plane(kind, seed)
    rng = np.random.default_rng(seed + 1)
    cur_plane = np.roll(ref_plane, shift, axis=(0, 1)).astype(np.int64)
    cur_plane += rng.integers(-noise, noise + 1, cur_plane.shape)
    cur_plane = np.clip(cur_plane, 0, 255).astype(np.uint8)
    options = EncoderOptions(partitions="all")
    if extreme:
        parent = tuple(64 if v >= 0 else -64 for v in parent)
    y, x = mb
    cur = cur_plane[y : y + 16, x : x + 16]

    def run():
        ref = PaddedReference.from_plane(ref_plane, options.merange + 24)
        cand = search_partitions(
            cur, ref, y, x, MotionVector(*parent, 1), MotionVector(*pred),
            options, size=size,
        )
        assert type(cand.distortion) is float
        return (
            cand.mode, cand.mvs, cand.distortion, cand.rate_bits,
            cand.n_search_points, cand.prediction.dtype, cand.prediction.tobytes(),
        )

    assert_identical_values(against_oracles(run))


def test_reference_view_is_read_only_and_per_reference():
    ref = PaddedReference.from_plane(_plane("noise", 0), 8)
    blocks = ref.sad_blocks
    assert blocks is ref.sad_blocks  # built once per reference
    assert not blocks.flags.writeable and blocks.dtype == np.int16
    assert np.array_equal(blocks[8 + 16, 8 + 32], ref.block(16, 32))
    with pytest.raises(ValueError):
        blocks[0, 0, 0, 0] = 1


# --- (2) intra-4x4 as a wavefront --------------------------------------------


@settings(max_examples=8, deadline=None)
@given(src=content_st, recon=content_st)
@pytest.mark.parametrize("qp", [1, 23, 51])
@pytest.mark.parametrize("trellis", [0, 1, 2])
@pytest.mark.parametrize("edge", sorted(EDGE_CLASSES))
def test_emit_intra4_identical(edge, trellis, qp, src, recon):
    y, x = EDGE_CLASSES[edge]
    src_plane = _plane(*src)
    recon_plane = _plane(*recon)
    options = EncoderOptions(trellis=trellis)

    def run():
        ctx = _FrameContext(
            src=src_plane, recon=recon_plane.copy(),
            frame_type=FrameType.I, base_qp=26,
        )
        ctx.mv_grid = [[MotionVector(4, 4)] * (WIDTH // 16) for _ in range(HEIGHT // 16)]
        writer = BitWriter()
        write_ue(writer, 5)  # leave the writer mid-byte
        encoder = Encoder(options)
        # A stage method outside encode(): give it the (untraced) model
        # _encode_impl would have built.
        encoder._trace = EncodeTrace(
            encoder.tracer, encoder.loop_opts, options,
            pad_h=HEIGHT, pad_w=WIDTH, n_frames=1,
        )
        mb = encoder._emit_intra4(ctx, y // 16, x // 16, qp, writer)
        assert mb.coeffs.dtype == np.int32 and mb.coeffs.shape == (16, 4, 4)
        assert all(type(m) is int for m in mb.intra_modes4)
        assert ctx.mv_grid[y // 16][x // 16] is None
        return (
            writer.getvalue(), writer.bit_count, mb.intra_modes4,
            mb.coeffs.tobytes(), ctx.recon.tobytes(), mb.bits,
        )

    assert_identical_values(against_oracles(run))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_tagged_batch_is_write_ue_then_encode_block(data):
    """The fold against the per-pair writes the oracle makes as it codes
    each block (``tests.oracles.emit_intra4_sequential``)."""
    n = data.draw(st.integers(0, 16))
    blocks = data.draw(
        arrays(np.int32, (n, 4, 4), elements=st.integers(-600, 600))
    )
    # All-zero and dense blocks inside one batch, as well as whatever drew.
    for i in data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=4)):
        if n:
            blocks[i] = 0
    tags = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))

    batch, each = BitWriter(), BitWriter()
    for writer in (batch, each):
        write_ue(writer, 3)  # leave both writers mid-byte
    widths = encode_tagged_blocks(batch, tags, blocks)
    per_pair = []
    for tag, block in zip(tags, blocks):
        start = each.bit_count
        write_ue(each, tag)
        encode_block(each, block)
        per_pair.append(each.bit_count - start)
    assert batch.getvalue() == each.getvalue()
    assert batch.bit_count == each.bit_count
    assert widths == per_pair


def test_tagged_batch_rejects_what_the_loop_rejects():
    zeros = np.zeros((2, 4, 4), dtype=np.int32)
    with pytest.raises(ValueError):
        encode_tagged_blocks(BitWriter(), [0, -1], zeros)
    with pytest.raises(ValueError):
        encode_tagged_blocks(BitWriter(), [0], zeros)
    with pytest.raises(ValueError):
        encode_tagged_blocks(BitWriter(), [0], np.zeros((4, 4), np.int32))


# --- (3) what is constant is folded -----------------------------------------


def _row(kind: str, rng) -> np.ndarray:
    if kind == "random":
        row = rng.integers(0, 256, 16)
    elif kind == "flat":
        row = np.full(16, rng.integers(0, 256))
    elif kind == "ramp":
        row = rng.integers(0, 256) + np.arange(16) * rng.integers(-17, 18)
    else:  # saturated
        row = rng.choice([0, 255], 16)
    return np.clip(row, 0, 255).astype(np.uint8).astype(np.float64)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["random", "flat", "ramp", "saturated"]),
    st.sampled_from(["random", "flat", "ramp", "saturated"]),
    st.integers(0, 2**32 - 1),
)
def test_plane_pred_is_the_polyfit_form(top_kind, left_kind, seed):
    rng = np.random.default_rng(seed)
    top, left = _row(top_kind, rng), _row(left_kind, rng)
    results = against_oracles(lambda: intra._plane_pred(top, left, 16).tobytes())
    assert_identical_values(results)
    # The oracle, spelled out: polyfit per row, then the plane.
    idx = np.arange(16, dtype=np.float64)
    h_grad = float(np.polyfit(idx, top, 1)[0])
    v_grad = float(np.polyfit(idx, left, 1)[0])
    yy, xx = np.meshgrid(idx - 15, idx - 15, indexing="ij")
    want = (top[-1] + left[-1]) / 2.0 + h_grad * xx + v_grad * yy
    assert results["oracle"] == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    arrays(np.int64, (16, 16), elements=st.integers(-255 * 16, 255 * 16)),
    st.booleans(),
)
def test_satd_16x16_is_satd_4x4_of_the_blocks(sixteenths, quarter_pel):
    """On integer diffs and on quarter-pel ones (multiples of 1/16)."""
    diff = sixteenths / 16.0 if quarter_pel else (sixteenths // 16).astype(np.float64)

    def run():
        value = transform.satd_16x16(diff)
        assert type(value) is float
        assert value == transform.satd_batch(blockify_16x16(diff)[None])[0]
        return value

    assert_identical_values(against_oracles(run))


@settings(max_examples=25, deadline=None)
@given(src=content_st, recon=content_st)
@pytest.mark.parametrize("edge", sorted(EDGE_CLASSES))
def test_predict_4x4_blocks_identical(edge, src, recon):
    y, x = EDGE_CLASSES[edge]
    source = _plane(*src)[y : y + 16, x : x + 16]
    recon_plane = _plane(*recon)

    def run():
        pred, sad, tried = intra.predict_4x4_blocks(source, recon_plane, y, x)
        assert type(sad) is float and type(tried) is int
        return pred.dtype, pred.shape, pred.tobytes(), sad, tried

    results = against_oracles(run)
    assert_identical_values(results)
    missing = {"corner": 8, "top-row": 4, "left-column": 4, "interior": 0}
    assert results["oracle"][4] == 48 - missing[edge]


# --- whole encodes -----------------------------------------------------------


@pytest.fixture(scope="module")
def mixed_video() -> FrameSequence:
    """Heavy motion on the left, a fresh blocky texture on the right third
    of every frame: nothing predicts the right, so intra-4x4 wins there in
    I, P and B frames, while the left splits into sub-partitions."""
    clip = generate_scene(
        SceneSpec(
            width=48, height=32, n_frames=6, fps=30.0, texture_detail=0.9,
            motion_magnitude=0.9, motion_irregularity=0.8, scene_cut_period=0,
            noise_level=0.3, n_sprites=6, seed=11, name="mixed",
        )
    )
    rng = np.random.default_rng(5)
    frames = []
    for frame in clip:
        luma = frame.luma.copy()
        luma[:, 32:] = np.kron(rng.integers(0, 256, (8, 4)), np.ones((4, 4)))
        frames.append(Frame(luma))
    return FrameSequence(frames=frames, fps=30.0, name="mixed")


def _encode_observables(video, options, *, traced):
    tracer = RecordingTracer(build_program()) if traced else None
    result = Encoder(options, tracer=tracer).encode(video)
    stream = result.stream
    modes = {
        (frame.frame_type, mb.mode) for frame in stream.frames for mb in frame.macroblocks
    }
    exact = (
        stream.bitstream,
        [f.recon.tobytes() for f in stream.frames],
        [(mb.mode, mb.qp, mb.bits, mb.mvs, mb.mv1, mb.intra_modes4)
         for f in stream.frames for mb in f.macroblocks],
        result.psnr_db,
    )
    trace = tracer.stream if traced else None
    return exact, modes, trace, stream


MIXED_CONFIGS = [pytest.param(dict(crf=14), id="crf")]


@pytest.mark.parametrize("rc", MIXED_CONFIGS)
def test_encode_identical_on_intra4_and_partition_content(mixed_video, rc):
    options = EncoderOptions(
        refs=2, bframes=2, b_adapt=0, scenecut=0, partitions="all", **rc
    )
    plain = against_oracles(
        lambda: _encode_observables(mixed_video, options, traced=False)
    )
    traced = against_oracles(
        lambda: _encode_observables(mixed_video, options, traced=True)
    )
    exact, modes, _, stream = plain["oracle"]
    # The content does what it is for.
    for ftype in FrameType:
        assert (ftype, MBMode.INTRA_4X4) in modes
    for ftype in (FrameType.P, FrameType.B):
        assert {(ftype, MBMode.INTER_8X8), (ftype, MBMode.INTER_4X4)} & modes
    assert (FrameType.B, MBMode.INTER_4X4) in modes

    ref_trace = traced["oracle"][2]
    for codec in plain:
        assert plain[codec][0] == exact, codec
        assert traced[codec][0] == exact, codec  # tracing only observes
        trace = traced[codec][2]
        assert_same_events(trace.events, ref_trace.events)
        assert trace.instr_by_kernel == ref_trace.instr_by_kernel, codec
        assert list(trace.instr_by_kernel) == list(ref_trace.instr_by_kernel)
        assert trace.kernel_calls == ref_trace.kernel_calls, codec

    # decode(encode(v)) is the encoder's own reconstruction, on both bodies.
    def roundtrip():
        decoded = decode(stream.bitstream).video
        for frame, coded in zip(decoded, stream.frames_in_display_order()):
            h, w = frame.luma.shape
            assert np.array_equal(frame.luma, coded.recon[:h, :w])
        return True

    against_oracles(roundtrip)
