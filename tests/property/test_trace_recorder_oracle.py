"""The appending recorder against the per-call recorder it replaced.

``RecordingTracer.kernel`` only checks and appends; one seal builds the
columns and the exact totals with array arithmetic. The recorder it
replaced — three ``InstrMix`` allocations and one event object per array,
every call — is kept as ``tests.oracles.OracleTracer`` and both are fed
the *same* calls (one encode, teed), so the comparison is exact: the same
materialised event sequence (type, kernel, iters, weight, addresses and
outcomes by value and dtype, kind, site) and ``==`` on every total.

- real encodes: every preset x crf x refs corner, each cell recorded at
  ``sample`` 1 and 3, the loop-optimization flags and chroma cycling
  through the cells; a traced decode; a transcode sharing one tracer;
- a Hypothesis program of raw ``kernel()`` calls — fractional iteration
  counts, empty and 2-D arrays, signed and narrow dtypes, repeated names,
  ``stream`` read between calls.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codec.decoder import decode
from repro.codec.encoder import Encoder, LoopOptimizations
from repro.codec.presets import preset_options
from repro.ffmpeg.transcode import transcode
from repro.trace.kernels import KERNELS, build_program
from repro.trace.recorder import RecordingTracer
from tests.oracles import OracleTracer, TeeTracer, assert_same_trace

PRESETS = ("ultrafast", "veryfast", "medium", "slow")
CRFS = (1, 23, 51)
REFS = (1, 8)
LOOP_OPTS = (
    LoopOptimizations(),
    LoopOptimizations(tile_transform=True),
    LoopOptimizations(fuse_deblock=True),
    LoopOptimizations(interchange_interp=True),
)
# 24 cells; the flag cycles with period 4 and chroma with period 3, so
# every preset, crf and refs value meets every flag and both chroma modes.
CELLS = [
    pytest.param(
        preset, crf, refs, LOOP_OPTS[i % 4], i % 3 == 0,
        id=f"{preset}-crf{crf}-refs{refs}-opt{i % 4}-{'chroma' if i % 3 == 0 else 'luma'}",
    )
    for i, (preset, crf, refs) in enumerate(itertools.product(PRESETS, CRFS, REFS))
]


def _recorders(program):
    """(new, oracle) pairs at sample 1 and 3, and the tee feeding all four."""
    pairs = [
        (RecordingTracer(program, sample=sample), OracleTracer(program, sample=sample))
        for sample in (1, 3)
    ]
    return pairs, TeeTracer(*itertools.chain.from_iterable(pairs))


@pytest.mark.parametrize("preset, crf, refs, loop_opts, chroma", CELLS)
def test_real_encodes_equal_the_oracle(busy_video, preset, crf, refs, loop_opts, chroma):
    options = preset_options(preset, crf=crf, refs=refs).with_updates(chroma=chroma)
    pairs, tee = _recorders(build_program())
    Encoder(options, tracer=tee, loop_opts=loop_opts).encode(busy_video)
    for recorder, oracle in pairs:
        assert recorder._stream is not None, "encode() must seal the trace"
        assert_same_trace(recorder.stream, oracle)
        assert recorder.stream.n_frames == len(busy_video)
    assert pairs[0][0].stream.columns.n_memory > pairs[1][0].stream.columns.n_memory > 0
    assert pairs[0][0].stream.columns.n_branch > 0


def test_traced_decode_equals_the_oracle(busy_video):
    options = preset_options("medium", crf=20, refs=2).with_updates(chroma=True)
    bitstream = Encoder(options).encode(busy_video).stream.bitstream
    pairs, tee = _recorders(build_program())
    decode(bitstream, tracer=tee)
    for recorder, oracle in pairs:
        assert recorder._stream is not None, "decode() must seal the trace"
        assert_same_trace(recorder.stream, oracle)
        assert recorder.stream.columns.n_memory == 0  # decode reports no addresses


def test_transcode_on_one_tracer_equals_the_oracle(busy_video):
    """Decode then encode into the same recorder: sealed twice, and the
    second seal covers both halves."""
    source = Encoder(preset_options("veryfast", crf=18)).encode(busy_video)
    pairs, tee = _recorders(build_program())
    transcode(source.stream.bitstream, preset="medium", crf=30, tracer=tee)
    for recorder, oracle in pairs:
        assert_same_trace(recorder.stream, oracle)
        assert recorder.stream.n_frames == 2 * len(busy_video)


# -- generated programs of kernel() calls -------------------------------

_NAMES = sorted(KERNELS)[:5]
_iters = st.one_of(
    st.integers(0, 400),
    st.floats(0, 1e6, allow_nan=False, width=64),
    st.sampled_from([0, 0.0, 0.5, 1.0, 1 / 3, 16, 2.5e9]),
)
_dtypes = st.sampled_from([np.uint64, np.uint64, np.int64, np.uint32, np.int32, np.uint8])


@st.composite
def _addr_arrays(draw):
    dtype = draw(_dtypes)
    shape = draw(st.sampled_from([(0,), (1,), (3,), (17,), (2, 4), (3, 0)]))
    limit = min(np.iinfo(dtype).max, 2**62)
    values = draw(
        st.lists(
            st.integers(0, limit), min_size=int(np.prod(shape)), max_size=int(np.prod(shape))
        )
    )
    array = np.array(values, dtype=dtype).reshape(shape)
    return array.T if draw(st.booleans()) else array


_outcomes = st.one_of(
    st.lists(st.booleans(), max_size=12).map(lambda v: np.array(v, dtype=bool)),
    st.lists(st.integers(0, 1), max_size=6).map(np.array),  # 0/1 ints
    st.lists(st.booleans(), min_size=4, max_size=4).map(
        lambda v: np.array(v, dtype=bool).reshape(2, 2)
    ),
)
_calls = st.fixed_dictionaries(
    {"name": st.sampled_from(_NAMES), "iters": _iters},
    optional={
        "reads": st.none() | _addr_arrays(),
        "writes": st.none() | _addr_arrays(),
        "branches": st.none()
        | st.dictionaries(st.sampled_from(["a", "b", "nz"]), _outcomes, max_size=3),
    },
)
_steps = st.lists(
    st.one_of(_calls, st.just("read"), st.just("frame"), st.just("flush")), max_size=40
)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), _steps)
def test_generated_call_programs_equal_the_oracle(sample, steps):
    program = build_program()
    recorder = RecordingTracer(program, sample=sample)
    oracle = OracleTracer(program, sample=sample)
    seen = []
    for step in steps:
        if step == "read":
            # A read seals; the calls that follow must not be lost, and the
            # stream handed out must keep describing this moment.
            stream = recorder.stream
            assert_same_trace(stream, oracle)
            seen.append((stream, len(oracle.events), oracle.totals.instr))
        elif step == "flush":
            recorder.flush()
        elif step == "frame":
            recorder.begin_frame("P", 0)
            oracle.begin_frame("P", 0)
        else:
            call = dict(step)
            name, iters = call.pop("name"), call.pop("iters")
            recorder.kernel(name, iters, **call)
            oracle.kernel(name, iters, **call)
    assert_same_trace(recorder.stream, oracle)
    for stream, n_events, instr in seen:
        assert len(stream.events) == n_events and stream.instr == instr
