"""The per-frame trace batch against the per-call trace model it replaced.

``codec/tracemodel.py::EncodeTrace`` holds a frame's reports back as
scalars and references, builds the frame's addresses and outcomes in one
batched pass per report kind, and hands them to the recorder in one
``append``. The model it replaced — each report building its arrays and
calling ``kernel()`` at once — is ``tests.oracles.PerCallEncodeTrace``.
Both record into a ``RecordingTracer``; every ``TraceColumns`` column must
be equal (``np.array_equal`` and an equal dtype), and so must the names,
the exact totals and the call counts:

- real encodes: every preset, trellis 0 / 1 / 2, each
  ``LoopOptimizations`` flag, ``sample`` 1 and 3, a frame with zero-token
  macroblocks, an I-only plan, B frames, chroma;
- seeded programs of reports with no encode: any levels, coefficients,
  qp, bit counts (past the bitstream buffer's end too), search windows,
  flags and modes, with the stream read — which flushes the batch —
  between any two reports.
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
from repro.codec.quant import quantize
from repro.codec.tracemodel import EncodeTrace, LoopOptimizations
from repro.codec.types import FrameType, MBMode
from repro.trace.events import TraceColumns
from repro.trace.kernels import build_program
from repro.trace.recorder import RecordingTracer
from tests.oracles import PerCallEncodeTrace

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
    assert (got.n_frames, got.data_reads, got.data_writes) == (
        expected.n_frames, expected.data_reads, expected.data_writes
    )


# -- real encodes --------------------------------------------------------

CASES = [
    *(pytest.param(preset, {}, {}, 1, id=preset) for preset in PRESET_NAMES),
    *(pytest.param("medium", {"trellis": t}, {}, 1, id=f"trellis{t}") for t in (0, 1, 2)),
    *(pytest.param("medium", {}, {flag: True}, 1, id=flag) for flag in FLAGS),
    pytest.param("slow", {}, {}, 3, id="sample3"),
    pytest.param("veryfast", {"crf": 51}, {}, 1, id="zero-token-mbs"),
    pytest.param("medium", {"keyint": 1}, {}, 1, id="i-only"),
    pytest.param("medium", {"bframes": 2, "b_adapt": 0}, {}, 3, id="b-frames"),
    pytest.param("veryfast", {"chroma": True}, {}, 1, id="chroma"),
]


@pytest.mark.parametrize("preset, updates, flags, sample", CASES)
def test_real_encodes_equal_the_per_call_model(
    busy_video, monkeypatch, preset, updates, flags, sample
):
    options = preset_options(preset).with_updates(**updates)
    loop_opts = LoopOptimizations(**flags)
    program = build_program()
    runs = []
    for model in (EncodeTrace, PerCallEncodeTrace):
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


# -- generated report programs, no encode --------------------------------

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
_reports = st.one_of(
    st.tuples(st.just("macroblock"), st.integers(0, 2), st.integers(0, 3)),
    st.tuples(
        st.just("me"),
        st.lists(_refs, min_size=1, max_size=3),
        st.lists(st.tuples(st.integers(-24, 24), st.integers(-24, 24)), max_size=5),
        st.lists(st.booleans(), max_size=5),
        st.integers(0, 40),
    ),
    st.tuples(st.just("interp"), _refs),
    st.tuples(st.just("partition_search"), st.integers(0, 30), st.integers(1, 16)),
    st.tuples(st.just("part_split"), st.lists(st.booleans(), max_size=2)),
    st.tuples(
        st.just("intra_probe"), st.sampled_from(["intra_pred16", "intra_pred4"]),
        st.integers(0, 48),
    ),
    st.tuples(
        st.just("code"),
        st.integers(0, 2**32 - 1),  # seed
        st.integers(0, 51),  # qp
        st.sampled_from([0.0, 0.004, 0.02, 0.3, 1.0]),  # coefficient density
        st.booleans(),  # trellis is handed the coefficients
        st.booleans(),  # one levels array for both reports
        st.one_of(st.integers(0, 5000), st.sampled_from([2**25 + 8, 2**26 + 72, 2**28])),
    ),
    st.tuples(st.just("frame_modes"), st.lists(st.sampled_from(list(MBMode)), max_size=12)),
    st.tuples(st.just("deblock"), st.integers(0, 2**32 - 1), st.integers(0, 300)),
    st.sampled_from(
        [("skip",), ("frame_setup",), ("chroma_plane",), ("rc_update",), ("lookahead",),
         ("read",)]
    ),
)


def _step(report):
    """``report`` as a function of the model, its arrays built once so that
    both models are handed the very same objects."""
    kind, *args = report
    if kind == "me":
        picks, positions, improvements, n_points = args
        refs = [SimpleNamespace(display_index=i) for i in picks]
        result = SimpleNamespace(positions=positions, improvements=improvements)
        return lambda model: model.me(refs, result, n_points)
    if kind == "interp":
        ref = SimpleNamespace(display_index=args[0])
        return lambda model: model.interp(ref)
    if kind == "partition_search":
        cand = SimpleNamespace(n_search_points=args[0], mvs=[None] * args[1])
        return lambda model: model.partition_search(cand)
    if kind == "code":
        seed_, qp, density, with_coeffs, shared, bits = args
        levels, coeffs = _coded(seed_, qp, density)
        coded = levels if shared else levels.copy()

        def code(model):
            model.transform_path(levels, qp, coeffs if with_coeffs else None)
            model.entropy_coeffs(coded, bits)
            model.recon_write()

        return code
    if kind == "frame_modes":
        mbs = [SimpleNamespace(mode=mode) for mode in args[0]]
        return lambda model: model.frame_modes(mbs)
    if kind == "deblock":
        rng = np.random.default_rng(args[0])
        before = rng.integers(0, 256, (PAD_H, PAD_W), dtype=np.uint8)
        after = np.where(rng.random((PAD_H, PAD_W)) < 0.5, before, before ^ 1)
        return lambda model: model.deblock(before, after, args[1])
    if kind == "skip":
        return lambda model: (model.entropy_header(), model.recon_write())
    if kind == "frame_setup":
        return lambda model: model.frame_setup(0)
    if kind == "chroma_plane":
        plane = np.zeros((PAD_H // 2, PAD_W // 2), dtype=np.uint8)
        return lambda model: model.chroma_plane(plane)
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
    for model_type in (EncodeTrace, PerCallEncodeTrace):
        tracer = RecordingTracer(program, sample=sample)
        model = model_type(
            tracer, loop_opts, options, pad_h=PAD_H, pad_w=PAD_W, n_frames=N_FRAMES
        )
        for disp_idx in range(N_FRAMES):
            model.dpb_store(disp_idx)
        model.macroblock(0, 0)
        models.append((model, tracer))
    (batch, batch_tracer), (per_call, per_call_tracer) = models
    for report in reports:
        if report == ("read",):
            # A read flushes what the batch holds back; what follows must
            # still land after it.
            assert_same_stream(batch_tracer.stream, per_call_tracer.stream)
            continue
        step = _step(report)
        step(batch)
        step(per_call)
    assert_same_stream(batch_tracer.stream, per_call_tracer.stream)
