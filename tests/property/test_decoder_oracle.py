"""The decoder against the per-macroblock decoder it replaced, and the
decoder laws every decoder states.

``Decoder`` parses a whole frame, then reconstructs it;
``tests.oracles.PerMacroblockDecoder`` parses and reconstructs one
macroblock at a time, as the decoder used to. On any input — a stream the
encoder wrote, one truncated around a frame header, one with a flipped
bit, random bytes behind a valid header — the two return equal frames or
raise the same exception type with the same message, on ``src`` and with
the codec oracles installed (``tests.oracles.CODECS``); a traced decode
records the same events. Then: decoding is idempotent (the same bytes
twice, one ``Decoder`` across two streams), and a stream the oracles
encoded decodes to the same pixels on ``src`` on flat, ramp and saturated
content, where a last-bit difference in the plane fit would round a pixel
the other way.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.codec.decoder import Decoder
from repro.codec.encoder import encode
from repro.codec.entropy import BitstreamError
from repro.codec.options import EncoderOptions
from repro.codec.types import IntraMode, MBMode
from repro.trace.kernels import build_program
from repro.video.frame import Frame, FrameSequence
from tests.oracles import (
    CODECS,
    OracleTracer,
    PerMacroblockDecoder,
    assert_same_events,
    oracle_codec,
)
from tests.property.test_kernel_equivalence import DECODE_CONFIGS


def _outcome(decoder_cls, data: bytes, tracer=None):
    """Everything observable about a decode: the frames and metadata, or
    the exception's type and message."""
    try:
        result = decoder_cls(tracer=tracer).decode(data)
    except BitstreamError as exc:
        return type(exc), str(exc)
    return (
        [(f.luma.tobytes(), f.luma.shape) for f in result.video],
        [None if f.chroma is None else [p.tobytes() for p in f.chroma]
         for f in result.video],
        result.frame_types,
        result.frame_qps,
        result.video.fps,
    )


def _assert_same_outcome(data: bytes) -> object:
    outcomes = []
    for codec, scope in CODECS.items():
        with scope():
            got = _outcome(Decoder, data)
            assert got == _outcome(PerMacroblockDecoder, data), codec
        outcomes.append(got)
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


@pytest.fixture(scope="module")
def streams(tiny_video, busy_video):
    """Two real streams: B frames and two references on moderate motion;
    scene cuts, every partition and chroma on heavy motion."""
    return [
        encode(tiny_video, EncoderOptions(crf=23, refs=2, bframes=1)),
        encode(
            busy_video,
            EncoderOptions(crf=14, refs=2, bframes=2, partitions="all", chroma=True),
        ),
    ]


def _frame_start_bytes(data: bytes) -> list[int]:
    oracle = PerMacroblockDecoder()
    oracle.decode(data)
    return [bit // 8 for bit in oracle.frame_starts]


@pytest.mark.parametrize("which", [0, 1])
def test_truncated_around_every_frame_header(streams, which):
    data = streams[which].stream.bitstream
    cuts = sorted(
        {
            max(0, min(len(data), start + delta))
            for start in _frame_start_bytes(data)
            for delta in range(-3, 4)
        }
    )
    assert len(cuts) >= 7 * len(streams[which].stream.frames) - 6
    for cut in cuts:
        _assert_same_outcome(data[:cut])


@pytest.mark.parametrize("seed", range(64))
def test_single_bit_flip(streams, seed):
    rng = np.random.default_rng(seed)
    data = bytearray(streams[seed % 2].stream.bitstream)
    data[int(rng.integers(len(data)))] ^= 1 << int(rng.integers(8))
    _assert_same_outcome(bytes(data))


@pytest.mark.parametrize("seed", range(32))
def test_random_payload_behind_a_valid_header(streams, seed):
    """The stream header and the first frame header of a real stream, then
    noise: the macroblock layer is garbage from its first code."""
    data = streams[seed % 2].stream.bitstream
    header = data[: _frame_start_bytes(data)[0]]
    payload = np.random.default_rng(seed).integers(0, 256, 512, dtype=np.uint8)
    _assert_same_outcome(header + payload.tobytes())


@pytest.mark.parametrize("options", DECODE_CONFIGS)
def test_round_trip_matrix_traced(tiny_video, options):
    """Well-formed streams: equal frames, and the same traced events."""
    data = encode(tiny_video, options).stream.bitstream
    program = build_program()
    for scope in CODECS.values():
        with scope():
            tracers = OracleTracer(program), OracleTracer(program)
            got = _outcome(Decoder, data, tracers[0])
            assert not isinstance(got[0], type), got
            assert got == _outcome(PerMacroblockDecoder, data, tracers[1])
        assert_same_events(tracers[0].events, tracers[1].events)
        assert tracers[0].totals.kernel_calls == tracers[1].totals.kernel_calls


# --- decoder laws -------------------------------------------------------------


def _frames(result) -> list[bytes]:
    return [f.luma.tobytes() for f in result.video]


@pytest.mark.parametrize("codec", CODECS)
def test_decoding_is_idempotent(streams, codec):
    """The same bytes twice, and one ``Decoder`` reused across two streams,
    give the frames a fresh decoder gives."""
    a, b = (s.stream.bitstream for s in streams)
    with CODECS[codec]():
        want_a, want_b = _frames(Decoder().decode(a)), _frames(Decoder().decode(b))
        decoder = Decoder()
        assert _frames(decoder.decode(a)) == want_a
        assert _frames(decoder.decode(a)) == want_a
        assert _frames(decoder.decode(b)) == want_b
        assert _frames(decoder.decode(a)) == want_a


def _clip(kind: str) -> FrameSequence:
    """Diagonal ramps, on which a plane anchored on the top row and left
    column predicts the macroblock exactly, so intra-16x16 picks PLANE."""
    y, x = np.mgrid[0:32, 0:48]
    slope = {"flat": 0, "ramp": 2, "saturated": 9}[kind]  # 9: clips at 0 / 255
    return FrameSequence(
        frames=[
            Frame(np.clip(slope * (x - y) + 128 + t, 0, 255).astype(np.uint8))
            for t in range(3)
        ],
        fps=30.0,
        name=kind,
    )


@pytest.mark.parametrize("kind", ["flat", "ramp", "saturated"])
def test_reference_stream_decodes_identically_under_vectorized(kind):
    """The decoder side of ``test_plane_pred_is_the_polyfit_form``: a NumPy
    change that moves the folded plane fit off ``np.polyfit`` fails here by
    name, not as drift."""
    clip = _clip(kind)
    with oracle_codec():
        result = encode(clip, EncoderOptions(crf=20, refs=1, bframes=0, keyint=2))
    planes = [
        mb.intra_mode is IntraMode.PLANE and mb.mode is MBMode.INTRA_16X16
        for frame in result.stream.frames
        for mb in frame.macroblocks
    ]
    assert any(planes) == (kind != "flat")
    recon = [
        f.recon[: clip.height, : clip.width].tobytes()
        for f in result.stream.frames_in_display_order()
    ]
    for codec, scope in CODECS.items():
        with scope():
            assert _frames(Decoder().decode(result.stream.bitstream)) == recon, codec
