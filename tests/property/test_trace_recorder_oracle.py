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

The trace's content is held too, per preset on real encodes: what a
traced encode reports counts what the codec did (search points, modes
tried, coefficients coded), and no branch site goes dead under a preset
whose options reach it.
"""

from __future__ import annotations

import inspect
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codec import encoder as encoder_mod, mbdecision
from repro.codec.decoder import decode
from repro.codec.encoder import Encoder, LoopOptimizations
from repro.codec.presets import PRESET_NAMES, preset_options
from repro.codec.types import FrameType, MBMode
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


# -- trace content: the trace counts what the codec did ------------------

#: Search methods that walk full-pel points and record a "new best" per point.
WALKS = ("dia", "hex", "umh")
#: Each branch site a traced encode reports, and whether ``options`` reach
#: it on a clip with P or B frames.
SITE_GATES = {
    "quant:nz": lambda options: True,
    "entropy_coeff:sig": lambda options: True,
    "entropy_coeff:big": lambda options: True,
    "mode_decide:skip": lambda options: True,
    "mode_decide:intra": lambda options: True,
    "me_sad:improve": lambda options: True,
    "mode_decide:part_split": lambda options: "p8x8" in options.partition_candidates,
    "trellis:zeroed": lambda options: options.trellis >= 1,
    "deblock:filtered": lambda options: options.deblock_enabled,
}


def _tap(monkeypatch, owner, name: str, seen: list) -> None:
    """Wrap ``owner.name``: each call appends (bound arguments, return value)."""
    inner = getattr(owner, name)
    signature = inspect.signature(inner)

    def tapped(*args, **kwargs):
        out = inner(*args, **kwargs)
        seen.append((signature.bind(*args, **kwargs).arguments, out))
        return out

    monkeypatch.setattr(owner, name, tapped)


def _traced_encode(video, preset: str):
    """A crf 23, refs 3 encode of ``video`` recorded at sample 1: the
    options, the coded stream, kernel iterations and branch outcomes
    summed by name."""
    options = preset_options(preset, crf=23, refs=3)
    recorder = RecordingTracer(build_program(), sample=1)
    coded = Encoder(options, tracer=recorder).encode(video).stream
    columns = recorder.stream.columns
    per_event = np.diff(columns.branch_offsets)
    iters = {
        name: float(columns.kernel_iters[columns.kernel_ids == i].sum())
        for i, name in enumerate(columns.kernel_names)
    }
    outcomes = {
        name: int(per_event[columns.branch_sites == i].sum())
        for i, name in enumerate(columns.site_names)
    }
    assert any(frame.frame_type is not FrameType.I for frame in coded.frames)
    return options, coded, iters, outcomes


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_trace_counts_what_the_encode_did(busy_video, monkeypatch, preset):
    """``me_sad`` ``improve`` outcomes number the winning full-pel walk's
    points (the walk ``subpel_refine`` starts from); ``me_sad`` iterations
    are 16 rows a 16x16 search point and 8 a partition search point; each
    intra probe iterates once a mode tried, and coding an intra-4x4
    macroblock tries DC/V/H on its 16 blocks; ``entropy_coeff`` iterates
    once a coefficient coded, at least once a coded macroblock."""
    walks, searches, partitions, probes16, probes4 = [], [], [], [], []
    _tap(monkeypatch, mbdecision, "subpel_refine", walks)
    _tap(monkeypatch, encoder_mod, "choose_inter_ref", searches)
    _tap(monkeypatch, encoder_mod, "search_partitions", partitions)
    _tap(monkeypatch, encoder_mod, "best_intra_16x16", probes16)
    _tap(monkeypatch, encoder_mod, "predict_4x4_blocks", probes4)
    options, coded, iters, outcomes = _traced_encode(busy_video, preset)
    assert walks and len(walks) == len(searches)
    if options.me in WALKS:
        walked = sum(args["result"].n_points for args, _ in walks)
        assert outcomes["me_sad:improve"] == walked > 0
    searched = sum(n_points for _, (_, _, n_points, _) in searches)
    split = sum(cand.n_search_points for _, cand in partitions if cand is not None)
    assert iters["me_sad"] == 16 * searched + 8 * split
    assert iters["intra_pred16"] == sum(i16.n_modes_tried for _, i16 in probes16) > 0
    mbs = [mb for frame in coded.frames for mb in frame.macroblocks]
    n_intra4 = sum(mb.mode is MBMode.INTRA_4X4 for mb in mbs)
    tried4 = sum(modes for _, (_, _, modes) in probes4)
    assert iters.get("intra_pred4", 0) == tried4 + 16 * 3 * n_intra4
    coded_coeffs = sum(
        max(np.count_nonzero(mb.coeffs), 1) for mb in mbs if mb.mode is not MBMode.SKIP
    )
    assert iters["entropy_coeff"] == coded_coeffs


@pytest.mark.parametrize(
    "preset",
    [
        pytest.param(
            preset,
            marks=pytest.mark.xfail(
                strict=True,
                reason="motion._esa_search builds no improvements list, so "
                "tesa leaves me_sad:improve dead (ROADMAP 1(c))",
            ),
        )
        if preset_options(preset).me not in WALKS
        else preset
        for preset in PRESET_NAMES
    ],
)
def test_no_branch_site_is_dead(busy_video, preset):
    """Every site a traced encode can report gets at least one outcome
    under every preset whose options reach it, and no other site exists."""
    options, _, _, outcomes = _traced_encode(busy_video, preset)
    assert set(outcomes) <= set(SITE_GATES)
    reached = {site for site, gate in SITE_GATES.items() if gate(options)}
    assert {site for site in reached if outcomes.get(site, 0) == 0} == set()
