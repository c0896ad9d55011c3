"""Laws of the trace model, driven one report or record at a time — no encode."""

from __future__ import annotations

import gc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from repro.codec.encoder import _DpbEntry
from repro.codec.mbdecision import InterCandidate
from repro.codec.motion import MotionSearchResult
from repro.codec.options import EncoderOptions
from repro.codec.tracemodel import EncodeTrace, InterSearch, LoopOptimizations
from repro.codec.types import CodedMacroblock, MBMode, MotionVector
from repro.trace.kernels import build_program
from repro.trace.recorder import NullTracer, RecordingTracer
from tests.oracles import PerCallTracer

PAD_H, PAD_W = 48, 64  # 3 x 4 macroblocks
OPTIONS = EncoderOptions(refs=2, trellis=1)


class ListTracer(PerCallTracer):
    """Keeps every call the model hands over, as the ``kernel`` call it
    stands for. The model holds reports and records back until the tracer
    flushes; reading :attr:`calls` flushes."""

    enabled = True

    def __init__(self) -> None:
        self._calls: list[SimpleNamespace] = []

    def kernel(self, name, iters=1.0, *, reads=None, writes=None, branches=None):
        self._calls.append(
            SimpleNamespace(name=name, iters=iters, reads=reads, writes=writes,
                            branches=branches)
        )

    @property
    def calls(self) -> list[SimpleNamespace]:
        self.flush()
        return self._calls

    def named(self, name: str) -> list[SimpleNamespace]:
        return [call for call in self.calls if call.name == name]


class DeafTracer(ListTracer):
    """Records nothing, but would show a call made anyway."""

    enabled = False


def _model(tracer=None, **loop_opts) -> tuple[EncodeTrace, ListTracer]:
    tracer = tracer if tracer is not None else ListTracer()
    model = EncodeTrace(
        tracer, LoopOptimizations(**loop_opts), OPTIONS,
        pad_h=PAD_H, pad_w=PAD_W, n_frames=3,
    )
    return model, tracer


def _mb(mb_y=0, mb_x=0, mode=MBMode.SKIP, **fields) -> CodedMacroblock:
    return CodedMacroblock(mb_x=mb_x, mb_y=mb_y, mode=mode, qp=26, **fields)


def _search(walk=None, refs=(0,), *, subpel=False, **fields) -> InterSearch:
    """An inter search over ``refs`` that every reference walked as ``walk``."""
    if walk is None:
        walk = MotionSearchResult(mv_x=0, mv_y=0, cost=0.0, n_points=1)
    fields = {"partitions": [], "split": [], **fields}
    return InterSearch(refs=tuple(refs), walks=[walk] * len(refs), ref=0, subpel=subpel, **fields)


def _record(model, mb, search=None, modes_tried=(), coeffs=None) -> None:
    model.record(mb, search=search, modes_tried=modes_tried, coeffs=coeffs)


def test_reports_reach_the_tracer_once_an_encode():
    """Records and per-frame reports are held back until the tracer flushes
    (the encode ends, or its stream is read), then handed over in the order
    they were made: a record's calls where it was recorded."""
    model, tracer = _model()
    model.frame_setup(0)
    _record(model, _mb())
    model.rc_update()
    model.frame_modes([SimpleNamespace(mode=MBMode.SKIP)])
    _record(model, _mb(0, 1))
    assert tracer._calls == []
    names = ["frame_setup", "entropy_header", "mc_copy", "rc_update", "mode_decide",
             "entropy_header", "mc_copy"]
    assert [call.name for call in tracer.calls] == names
    model.rc_update()
    assert len(tracer._calls) == len(names)
    assert [call.name for call in tracer.calls][len(names):] == ["rc_update"]


def test_a_record_makes_the_calls_of_its_path_in_the_encoders_order():
    """Search, interpolation, partitions, their flags, the L1 search, the
    intra probes, coding an intra-4x4 macroblock, the transform path, the
    entropy coder, the reconstruction write."""
    model, tracer = _model()
    for disp_idx in range(3):
        model.dpb_store(disp_idx)
    levels = np.ones((16, 4, 4), dtype=np.int32)
    partitions = [(5, 4), (5, 4)]
    search = _search(subpel=True, partitions=partitions, split=[True, False])
    search.bi = (2, MotionSearchResult(mv_x=0, mv_y=0, cost=0.0, n_points=3))
    _record(model, _mb(1, 1, MBMode.INTRA_4X4, coeffs=levels), search, (4, 40))
    _record(model, _mb(1, 2, MBMode.INTER_16X16, coeffs=levels), _search(), (), levels * 1.0)
    _record(model, _mb(1, 3), _search())
    names = [call.name for call in tracer.calls]
    coding = ["dct4", "quant", "trellis", "idct4", "entropy_coeff", "entropy_header", "mc_copy"]
    assert names == [
        "me_sad", "me_interp", "me_sad", "mode_decide", "me_sad", "mode_decide",
        "mode_decide", "me_sad", "intra_pred16", "intra_pred4", "intra_pred4", *coding,
        "me_sad", *coding,
        "me_sad", "entropy_header", "mc_copy",
    ]
    iters = [call.iters for call in tracer.calls[:11]]
    assert iters == [16, 17, 40, 4, 40, 4, 2, 3 * 16, 4, 40, 48]


def test_model_and_recorder_hold_no_reference_cycle():
    """The recorder holds the model's hand-over weakly, so once both are
    dropped the trace is freed by reference counting, not left for the
    garbage collector (a profiled sweep holds one trace, not several)."""
    gc.disable()
    try:
        tracer = RecordingTracer(build_program())
        model = _model(tracer)[0]
        _record(model, _mb())
        tracer.flush()
        alive = weakref.ref(tracer)
        del model, tracer
        assert alive() is None
    finally:
        gc.enable()


def test_rows_touch_first_and_last_byte_of_each_row():
    model, tracer = _model()
    _record(model, _mb(0, 0))
    _record(model, _mb(1, 2))
    origin, moved = (call.writes for call in tracer.named("mc_copy"))
    starts = np.arange(16) * PAD_W
    assert np.array_equal(origin - origin[0], np.concatenate([starts, starts + 15]))
    assert np.array_equal(moved - origin, np.full(32, 16 * PAD_W + 32))
    assert origin.dtype == np.uint64


@pytest.mark.parametrize("tile, stride", [(True, 0), (False, 1024)])
def test_tile_transform_reuses_one_coefficient_scratch(tile, stride):
    model, tracer = _model(tile_transform=tile)
    levels = np.ones((16, 4, 4), dtype=np.int32)
    for mb_y, mb_x in ((0, 0), (0, 1), (2, 3)):
        _record(model, _mb(mb_y, mb_x, MBMode.INTER_16X16, coeffs=levels, bits=300))
    first, second, last = (call.writes for call in tracer.named("dct4"))
    assert np.array_equal(first - first[0], np.arange(16) * 64)
    assert np.array_equal(second - first, np.full(16, stride))
    assert np.array_equal(last - first, np.full(16, (2 * 4 + 3) * stride))
    # One macroblock, one set of coefficient addresses for every kernel.
    for name in ("quant", "trellis", "idct4", "entropy_coeff"):
        assert np.array_equal(tracer.named(name)[0].reads, first)


def test_fused_deblock_is_the_two_passes_in_one():
    rng = np.random.default_rng(0)
    before = rng.integers(0, 256, (PAD_H, PAD_W), dtype=np.uint8)
    after = np.where(rng.random((PAD_H, PAD_W)) < 0.5, before, before ^ 1)
    fused_model, fused = _model(fuse_deblock=True)
    fused_model.deblock(before, after, 37)
    split_model, split = _model()
    split_model.deblock(before, after, 37)
    (one,), (first, second) = fused.calls, split.calls
    assert one.iters == first.iters + second.iters == 37
    assert np.array_equal(
        one.branches["filtered"],
        np.concatenate([first.branches["filtered"], second.branches["filtered"]]),
    )
    assert one.branches["filtered"].size == (PAD_H // 4) * (PAD_W // 4)
    for call in (first, second):
        assert np.array_equal(call.reads, one.reads)
        assert np.array_equal(call.writes, one.writes)


def test_interchange_interp_walks_the_same_lines_in_another_order():
    """Row-major touches each row's first and last byte, column-major every
    second column of every row: the same cache lines, ordered differently."""
    reads = {}
    for interchange in (False, True):
        model, tracer = _model(interchange_interp=interchange)
        model.dpb_store(0)
        # x = 48: a 17-byte row straddles two lines
        _record(model, _mb(1, 3), _search(subpel=True))
        (call,) = tracer.named("me_interp")
        assert call.name == "me_interp" and call.iters == 17
        assert np.array_equal(call.writes - call.writes[0], np.arange(17) * 32)
        reads[interchange] = call.reads >> np.uint64(6)
    assert set(reads[False].tolist()) == set(reads[True].tolist())
    assert not np.array_equal(reads[False][: reads[True].size], reads[True])


def test_both_intra_probes_read_the_same_neighbourhood():
    model, tracer = _model()
    levels = np.zeros((16, 4, 4), dtype=np.int32)
    _record(model, _mb(1, 1, MBMode.INTRA_4X4, coeffs=levels), modes_tried=(4, 40))
    i16, i4, coded = tracer.calls[:3]
    assert (i16.name, i16.iters, i4.name, i4.iters) == ("intra_pred16", 4, "intra_pred4", 40)
    assert (coded.name, coded.iters) == ("intra_pred4", 48)
    assert np.array_equal(i16.reads, i4.reads) and np.array_equal(i16.reads, coded.reads)
    assert i16.writes is None and i16.branches is None


def test_me_reads_each_reference_from_its_dpb_buffer():
    model, tracer = _model()
    for disp_idx in range(5):  # refs + 2 = 4 buffers: the fifth reuses the first
        model.dpb_store(disp_idx)
    walk = MotionSearchResult(
        mv_x=0, mv_y=0, cost=0.0, n_points=3, positions=[(-3, 2), (4, -1)],
        improvements=[True, False],
    )
    _record(model, _mb(1, 1), _search(walk, (0, 1, 4)))
    call = tracer.calls[0]
    assert call.iters == 3 * 3 * 16 and call.branches["improve"].tolist() == [True, False]
    per_ref = call.reads.reshape(3, -1)
    # Bounding box of the walk: rows -1..17, columns -3..19 of the block.
    assert per_ref.shape[1] == 2 * (2 + 1 + 16)
    assert int(per_ref[1, 0] - per_ref[0, 0]) > PAD_H * PAD_W  # another buffer
    assert np.array_equal(per_ref[2], per_ref[0])


@pytest.mark.parametrize(
    "record, args",
    [
        (MotionSearchResult, (0, 0, 1.0, 1)),
        (InterCandidate, (MBMode.INTER_16X16, [MotionVector(0, 0)], None, 1.0, 1, 1, [])),
        (CodedMacroblock, (0, 0, MBMode.SKIP, 23)),
        (_DpbEntry, (0, None)),
        (InterSearch, ((0,), [], 0, False, [], [])),
    ],
)
def test_records_the_model_reads_refuse_positional_fields(record, args):
    """A swapped positional field would change the trace silently; every
    record handed to an ``EncodeTrace`` report or decision record is built
    by keyword."""
    with pytest.raises(TypeError, match="positional"):
        record(*args)


@pytest.mark.parametrize("k", [0, 1, 7])
def test_me_emits_one_improve_outcome_per_improvement(k):
    model, tracer = _model()
    model.dpb_store(0)
    improvements = [i % 2 == 0 for i in range(k)]
    result = MotionSearchResult(
        mv_x=0, mv_y=0, cost=1.0, n_points=k, positions=[(0, 0)] * k,
        improvements=improvements,
    )
    _record(model, _mb(1, 1), _search(result))
    call = tracer.calls[0]
    assert (call.name, call.iters) == ("me_sad", 16 * k)
    improve = (call.branches or {}).get("improve", np.zeros(0, dtype=bool))
    assert improve.tolist() == improvements


def test_lazy_regions_are_laid_out_in_first_use_order():
    """In the order the calls first use them, whenever the records are
    drained — and a per-frame report that uses one names the records'
    regions first."""
    def bases(*reports):
        model, tracer = _model()
        model.dpb_store(0)
        levels = np.zeros((16, 4, 4), dtype=np.int32)
        for report in reports:
            if report == "deblock":
                plane = np.zeros((PAD_H, PAD_W), dtype=np.uint8)
                model.deblock(plane, plane, 8)
            else:
                mode = MBMode.INTER_16X16 if "coded" in report else MBMode.SKIP
                search = _search(subpel="interp" in report)
                _record(model, _mb(0, 0, mode, coeffs=levels), search)
        touched = {"me_interp": "writes", "dct4": "reads", "mc_copy": "writes", "deblock": "writes"}
        return {
            call.name: int(getattr(call, touched[call.name])[0])
            for call in tracer.calls if call.name in touched
        }

    forward = bases("interp", "skip")
    backward = bases("skip", "interp")
    assert forward["me_interp"] < forward["mc_copy"]
    assert backward["mc_copy"] < backward["me_interp"]
    # One interpolated, coded macroblock: scratch, source, reconstruction.
    coded = bases("interp coded")
    assert coded["me_interp"] < coded["dct4"] < coded["mc_copy"]
    # Deblocking after a record that interpolated: the record's regions first.
    late = bases("interp", "deblock")
    assert late["me_interp"] < late["mc_copy"] == late["deblock"]


@pytest.mark.parametrize("tracer", [NullTracer(), DeafTracer()])
def test_untraced_model_lays_out_the_heap_and_reports_nothing(tracer):
    recording, _ = _model()
    model, _ = _model(tracer)
    assert model.heap_bytes == recording.heap_bytes > 6 * PAD_H * PAD_W
    levels = np.ones((16, 4, 4), dtype=np.int32)
    plane = np.zeros((PAD_H, PAD_W), dtype=np.uint8)
    mb = SimpleNamespace(mode=None)
    model.lookahead(PAD_W, PAD_H)
    model.frame_setup(0)
    model.dpb_store(0)
    search = _search(subpel=True, split=[True])
    search.partitions.append((4, 4))
    coded = _mb(1, 1, MBMode.INTER_8X8, coeffs=levels, bits=300)
    _record(model, coded, search, (4, 40), levels.astype(np.float64))
    model.frame_modes([mb])
    model.chroma_plane(plane)
    model.deblock(plane, plane, 8)
    model.rc_update()
    assert model.heap_bytes == recording.heap_bytes  # no lazily named region either
    assert getattr(tracer, "calls", []) == []
