"""The per-encode drain of decision records against the per-call trace model.

``codec/tracemodel.py::EncodeTrace`` holds each coded macroblock's decision
record (what the encoder already holds: the coded macroblock, its
``InterSearch``, the intra modes tried, the coefficients) and the
per-frame reports as scalars and references. Once per encode — and
whenever the stream is read — it derives every macroblock's calls from the
records in array passes, places them between the per-frame calls, and
hands the whole encode to the recorder in one ``append``. The model it
replaced — each report building its arrays and calling ``kernel()`` at
once — is ``tests.oracles.PerCallEncodeTrace``; ``PerCallRecords`` replays
each record into the per-macroblock reports the encoder made, in its
order. Both record into a ``RecordingTracer``; every ``TraceColumns``
column must be equal (``np.array_equal`` and an equal dtype), and so must
the names, the exact totals and the call counts:

- real encodes: every preset, trellis 0 / 1 / 2, each
  ``LoopOptimizations`` flag, ``sample`` 1 and 3, a frame with zero-token
  macroblocks, an I-only plan, B frames;
- seeded programs of records and per-frame reports with no encode: any
  paths, levels, coefficients, qp, bit counts (past the bitstream buffer's
  end too), search walks, references, partitions, flags and modes, with
  the stream read — which drains the records — between any two of them.

A traced encode hands the recorder one ``append``, and one more per read
of the stream mid-encode.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.codec import encoder as encoder_mod
from repro.codec.encoder import Encoder
from repro.codec.options import EncoderOptions
from repro.codec.presets import PRESET_NAMES, preset_options
from repro.codec.motion import MotionSearchResult
from repro.codec.quant import quantize
from repro.codec.tracemodel import EncodeTrace, InterSearch, LoopOptimizations
from repro.codec.types import CodedMacroblock, FrameType, MBMode
from repro.trace.events import TraceColumns
from repro.trace.kernels import build_program
from repro.trace.recorder import RecordingTracer
from tests.oracles import PerCallRecords

COLUMNS = [f.name for f in dataclasses.fields(TraceColumns) if f.init]
FLAGS = [f.name for f in dataclasses.fields(LoopOptimizations)]


def assert_same_stream(got, expected):
    """Column for column, by value and dtype, then every exact total."""
    for name in COLUMNS:
        a, b = getattr(got.columns, name), getattr(expected.columns, name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        else:
            assert a == b, name
    assert got.instr == expected.instr
    assert list(got.instr_by_kernel.items()) == list(expected.instr_by_kernel.items())
    assert list(got.kernel_calls.items()) == list(expected.kernel_calls.items())
    assert got.n_frames == expected.n_frames


# -- real encodes --------------------------------------------------------

CASES = [
    *(pytest.param(preset, {}, {}, 1, id=preset) for preset in PRESET_NAMES),
    *(pytest.param("medium", {"trellis": t}, {}, 1, id=f"trellis{t}") for t in (0, 1, 2)),
    *(pytest.param("medium", {}, {flag: True}, 1, id=flag) for flag in FLAGS),
    pytest.param("slow", {}, {}, 3, id="sample3"),
    pytest.param("veryfast", {"crf": 51}, {}, 1, id="zero-token-mbs"),
    pytest.param("medium", {"keyint": 1}, {}, 1, id="i-only"),
    pytest.param("medium", {"bframes": 2, "b_adapt": 0}, {}, 3, id="b-frames"),
]


@pytest.mark.parametrize("preset, updates, flags, sample", CASES)
def test_real_encodes_equal_the_per_call_model(
    busy_video, monkeypatch, preset, updates, flags, sample
):
    options = preset_options(preset).with_updates(**updates)
    loop_opts = LoopOptimizations(**flags)
    program = build_program()
    runs = []
    for model in (EncodeTrace, PerCallRecords):
        monkeypatch.setattr(encoder_mod, "EncodeTrace", model)
        tracer = RecordingTracer(program, sample=sample)
        coded = Encoder(options, tracer=tracer, loop_opts=loop_opts).encode(busy_video)
        runs.append((coded.stream, tracer.stream))
    (coded, batch), (per_call_coded, per_call) = runs
    assert coded.bitstream == per_call_coded.bitstream
    assert_same_stream(batch, per_call)
    # Each case reaches what it is there for.
    types = {frame.frame_type for frame in coded.frames}
    if "keyint" in updates:
        assert types == {FrameType.I}
    if "bframes" in updates:
        assert FrameType.B in types
    if "crf" in updates:  # an entropy_coeff:big event of one outcome: no token
        columns = batch.columns
        big = columns.site_names.index("entropy_coeff:big")
        sizes = np.diff(columns.branch_offsets)[columns.branch_sites == big]
        assert (sizes == 1).any()


class CountingTracer(RecordingTracer):
    """Counts its appends, and reads its own stream as frames ``read_at``
    (by decode order) begin: a read mid-encode."""

    def __init__(self, program, read_at=()):
        super().__init__(program)
        self.read_at, self.appends = read_at, 0

    def append(self, batch):
        self.appends += 1
        super().append(batch)

    def begin_frame(self, frame_type, index):
        if self._n_frames in self.read_at:
            assert self.stream.n_frames == self._n_frames
        super().begin_frame(frame_type, index)


@pytest.mark.parametrize("read_at", [(), (2,), (1, 3, 5)])
def test_a_traced_encode_appends_once_plus_once_a_read(busy_video, read_at):
    """The records wait for the end of the encode, or for a read; a read
    mid-encode changes nothing in the trace."""
    program = build_program()
    options = preset_options("medium")
    tracer = CountingTracer(program, read_at)
    Encoder(options, tracer=tracer).encode(busy_video)
    assert tracer.appends == 1 + len(read_at)
    unread = RecordingTracer(program)
    Encoder(options, tracer=unread).encode(busy_video)
    assert_same_stream(tracer.stream, unread.stream)


# -- generated programs of records and reports, no encode ----------------

PAD_H, PAD_W = 48, 64  # 3 x 4 macroblocks
N_FRAMES = 3


def _coded(seed_, qp, density):
    """A macroblock's coefficients and the levels trellis left of them:
    the plain dead-zone levels, some demoted one step toward zero."""
    rng = np.random.default_rng(seed_)
    coeffs = rng.normal(0.0, 60.0, (16, 4, 4)) * (rng.random((16, 4, 4)) < density)
    plain = quantize(coeffs, qp)
    demoted = rng.random(plain.shape) < 0.3
    return (plain - np.sign(plain) * demoted).astype(np.int32), coeffs


_refs = st.integers(0, N_FRAMES - 1)
_walks = st.tuples(
    st.lists(st.tuples(st.integers(-24, 24), st.integers(-24, 24)), max_size=5),
    st.lists(st.booleans(), max_size=5),
    st.integers(0, 40),
)
_searches = st.tuples(
    st.lists(st.tuples(_refs, _walks), min_size=1, max_size=3),  # references searched
    st.integers(0, 2),  # the winner, modulo the references
    st.booleans(),  # a fractional vector
    st.lists(st.tuples(st.integers(0, 30), st.integers(1, 16)), max_size=2),  # partitions
    st.lists(st.booleans(), max_size=2),  # their flags
    st.none() | st.tuples(_refs, _walks),  # the L1 search
)
_reports = st.one_of(
    st.tuples(
        st.just("record"),
        st.integers(0, 2), st.integers(0, 3),  # mb_y, mb_x
        st.sampled_from(list(MBMode)),
        st.none() | _searches,
        st.lists(st.integers(0, 48), max_size=2),  # the intra modes tried
        st.integers(0, 2**32 - 1),  # seed
        st.integers(0, 51),  # qp
        st.sampled_from([0.0, 0.004, 0.02, 0.3, 1.0]),  # coefficient density
        st.booleans(),  # trellis is handed the coefficients
        st.one_of(st.integers(0, 5000), st.sampled_from([2**25 + 8, 2**26 + 72, 2**28])),
    ),
    st.tuples(st.just("frame_modes"), st.lists(st.sampled_from(list(MBMode)), max_size=12)),
    st.tuples(st.just("deblock"), st.integers(0, 2**32 - 1), st.integers(0, 300)),
    st.sampled_from(
        [("frame_setup",), ("rc_update",), ("lookahead",), ("read",)]
    ),
)


def _walk(drawn):
    positions, improvements, n_points = drawn
    return MotionSearchResult(
        mv_x=0, mv_y=0, cost=0.0, n_points=n_points, positions=positions,
        improvements=improvements,
    )


def _search(drawn):
    searched, winner, subpel, partitions, split, bi = drawn
    return InterSearch(
        refs=tuple(ref for ref, _ in searched),
        walks=[_walk(walk) for _, walk in searched],
        ref=winner % len(searched),
        subpel=subpel,
        partitions=[tuple(candidate) for candidate in partitions],
        split=split,
        bi=None if bi is None else (bi[0], _walk(bi[1])),
    )


def _step(report):
    """``report`` as a function of the model, its arrays and records built
    once so that both models are handed the very same objects."""
    kind, *args = report
    if kind == "record":
        mb_y, mb_x, mode, search, tried, seed_, qp, density, with_coeffs, bits = args
        levels, coeffs = _coded(seed_, qp, density)
        mb = CodedMacroblock(mb_x=mb_x, mb_y=mb_y, mode=mode, qp=qp, coeffs=levels, bits=bits)
        record = dict(
            search=None if search is None else _search(search),
            modes_tried=tuple(tried),
            coeffs=coeffs if with_coeffs else None,
        )
        return lambda model: model.record(mb, **record)
    if kind == "frame_modes":
        mbs = [SimpleNamespace(mode=mode) for mode in args[0]]
        return lambda model: model.frame_modes(mbs)
    if kind == "deblock":
        rng = np.random.default_rng(args[0])
        before = rng.integers(0, 256, (PAD_H, PAD_W), dtype=np.uint8)
        after = np.where(rng.random((PAD_H, PAD_W)) < 0.5, before, before ^ 1)
        return lambda model: model.deblock(before, after, args[1])
    if kind == "frame_setup":
        return lambda model: model.frame_setup(0)
    if kind == "lookahead":
        return lambda model: model.lookahead(PAD_W, PAD_H)
    return lambda model: getattr(model, kind)(*args)


@seed(29)
@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2), st.sets(st.sampled_from(FLAGS)), st.integers(1, 3),
    st.lists(_reports, max_size=30),
)
def test_generated_report_programs_equal_the_per_call_model(trellis, flags, sample, reports):
    program = build_program()
    options = EncoderOptions(refs=2, trellis=trellis)
    loop_opts = LoopOptimizations(**dict.fromkeys(flags, True))
    models = []
    for model_type in (EncodeTrace, PerCallRecords):
        tracer = RecordingTracer(program, sample=sample)
        model = model_type(
            tracer, loop_opts, options, pad_h=PAD_H, pad_w=PAD_W, n_frames=N_FRAMES
        )
        for disp_idx in range(N_FRAMES):
            model.dpb_store(disp_idx)
        models.append((model, tracer))
    (drained, drained_tracer), (per_call, per_call_tracer) = models
    for report in reports:
        if report == ("read",):
            # A read drains what the model holds back; what follows must
            # still land after it.
            assert_same_stream(drained_tracer.stream, per_call_tracer.stream)
            continue
        step = _step(report)
        step(drained)
        step(per_call)
    assert_same_stream(drained_tracer.stream, per_call_tracer.stream)
