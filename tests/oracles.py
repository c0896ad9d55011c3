"""Per-event reference implementations of the trace hand-off.

The runtime keeps a sampled trace in columns: the recorder appends and
seals, the simulator slices arrays (``repro.trace.events``). What it
replaced — one Python object per event, one Python call per event — lives
on here, verbatim where it matters, as the oracle the tests hold the
column path equal to (``==`` on every float):

* :class:`OracleTracer`: the recorder that built ``InstrMix`` totals and
  event objects call by call; :class:`TeeTracer` feeds one encode to
  several recorders; :class:`PerCallTracer` / :func:`unbatched` read a
  ``CallBatch`` as the ``kernel()`` calls it stands for.
* :class:`PerCallEncodeTrace`: the trace model that built each report's
  arrays at once and handed them over in one ``kernel()`` call each — the
  oracle of ``EncodeTrace``'s per-encode drain; :class:`PerCallRecords`
  replays each macroblock's decision record into its per-macroblock
  reports.
* :class:`PerCallICache`, :class:`PerEventHierarchy`,
  :func:`event_windows` and :func:`sliding_two_level_mispredicts`: the
  simulator's per-event model walks; :func:`per_event_models` swaps them
  into ``simulate()`` so an oracle report is the real assembly over
  per-event model steps.

* The codec's scalar bodies — the transforms as ``einsum``, bit-at-a-time
  writes, a reader that never tokenizes, per-candidate motion and intra
  scoring, per-partition refinement, per-edge deblocking, per-block chroma
  and the raster intra-4x4 chain — each under the name of the batched
  ``src`` body it stands for. :func:`oracle_codec` installs them all, so a
  whole encode or decode runs them; :func:`against_oracles` runs one
  callable on ``src`` and on the oracles, and
  :func:`assert_identical_values` holds the two results ``==``.

* :class:`PerMacroblockDecoder`: the decoder that parsed and reconstructed
  one macroblock at a time — a batch scattered and inverse-transformed per
  macroblock, intra-4x4 predicted block by block, a fractional fetch served
  by the reference's whole-plane phase cache.

* :func:`inter_cost_per_shift`, :func:`fold_batch_numpy` and
  :func:`trellis_quantize_two_pass` (with :func:`level_bits_log2`): the
  lookahead cost one translation at a time, the run-level fold with every
  codeword computed in NumPy, and trellis from a second ``quantize`` —
  the encoder kernels the folded ones replaced.

* :func:`lru_window_int64` (with :func:`stable_order_packed`),
  :func:`two_level_by_history_per_width` (with
  :func:`history_keys_per_width` and :func:`count_mispredicts_unique`) and
  :func:`evaluate_per_site`: the LRU window with both sorts
  multiply-packed and every array in ``intp``, the predictor counts with
  one key array per history length and sparse patterns counted by
  ``np.unique``, and the predictor run on every site's stream — the
  simulator steps the narrow, one-window, one-count ones replaced.

* :func:`encode_block`, :func:`write_bit` and :func:`scene_change_score`:
  the one-block writer, the per-bit write and the two-frame scene-cut
  ratio, which ``src`` only computes batched or inside ``plan_gop``;
  :func:`columns_from_events`, a hand-built event list as columns; and
  :func:`format_fault_plan`, the canonical writer ``parse_fault_plan`` is
  held to.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager, nullcontext
from functools import cached_property
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from repro.codec import chroma as chroma_mod
from repro.codec import deblock as deblock_mod
from repro.codec import decoder as decoder_mod
from repro.codec import encoder as encoder_mod
from repro.codec import entropy as entropy_mod
from repro.codec import gop as gop_mod
from repro.codec import intra as intra_mod
from repro.codec import mbdecision as mbdecision_mod
from repro.codec import motion as motion_mod
from repro.codec import transform as transform_mod
from repro.codec.entropy import (
    BitReader,
    BitstreamError,
    BitWriter,
    BlockBatches,
    decode_blocks,
    read_se,
    read_ue,
)
from repro.codec.intra import predict_16x16
from repro.codec.motion import (
    _DIA_OFFSETS,
    _HEX_OFFSETS,
    MotionSearchResult,
    fetch_prediction,
    predict_mv,
)
from repro.codec.quant import dequantize, qstep, quantize, rd_lambda, trellis_quantize
from repro.codec.transform import _H4, _T, ZIGZAG_4X4, unblockify_16x16
from repro.codec.types import MODE_IDS, CodedMacroblock, IntraMode, MBMode, MotionVector
from repro.trace import events as events_mod
from repro.trace.events import (
    BranchEvent,
    KernelEvent,
    MemoryEvent,
    ReplayWindow,
    TraceColumns,
    TraceRows,
    TraceStream,
    checked_addrs,
    checked_outcomes,
)
from repro.trace.recorder import AddressMap, Tracer
from repro.uarch import branch as branch_mod
from repro.uarch import simulator as simulator_mod
from repro.uarch.cache import Cache, CacheHierarchy
from repro.uarch.icache import (
    _LINES_PER_PAGE,
    _PAGE_DISPERSION,
    _PREFETCH_RESIDUE,
    AnalyticICache,
    ICacheStats,
)

# -- producer -----------------------------------------------------------


def columns_from_events(events) -> TraceColumns:
    """Columns of a hand-built event list (any mix and order of types),
    through the ``TraceRows`` a recorder fills: one chunk, every array
    checked as ``kernel()`` checks it."""

    def unzip(rows: list[tuple], width: int) -> tuple:
        return tuple(zip(*rows)) if rows else ((),) * width

    rows = TraceRows()
    kernels, memory, branches, addrs, outcomes = [], [], [], [], []
    for pos, event in enumerate(events):
        if isinstance(event, KernelEvent):
            kernels.append((rows.kernel_id(event.kernel), event.iters, event.weight, pos))
        elif isinstance(event, MemoryEvent):
            arr = checked_addrs(event.addrs)
            addrs.append(arr)
            memory.append(
                (rows.kernel_id(event.kernel), event.kind == "r", event.weight, pos, arr.size)
            )
        elif isinstance(event, BranchEvent):
            arr = checked_outcomes(event.outcomes)
            outcomes.append(arr)
            branches.append((rows.site_id(event.site), event.weight, pos, arr.size))
        else:
            raise TypeError(f"not a trace event: {event!r}")
    rows.kernel_chunks.append(unzip(kernels, 4))
    rows.memory_chunks.append((*unzip(memory, 5), events_mod._flat(addrs, np.uint64)))
    rows.branch_chunks.append((*unzip(branches, 4), events_mod._flat(outcomes, bool)))
    return rows.build()


def _as_addrs(addrs):
    arr = np.asarray(addrs).ravel()
    if arr.size and arr.min() < 0:
        raise ValueError("negative address in trace")
    return arr.astype(np.uint64, copy=False)


def unbatched(batch):
    """The ``kernel()`` calls a ``CallBatch`` stands for, in order, as
    (name, iters, reads, writes, branches), ``None`` for an empty array or
    no branch event."""
    ends = np.cumsum(np.column_stack((batch.read_sizes, batch.write_sizes)).ravel()).tolist()
    b_ends = np.cumsum(batch.branch_sizes).tolist()
    b_calls, b_tags = batch.branch_calls.tolist(), batch.branch_tags.tolist()
    lo = j = b_lo = 0
    for i, (kernel, iters) in enumerate(zip(batch.kernels.tolist(), batch.iters.tolist())):
        mid, hi = ends[2 * i], ends[2 * i + 1]
        branches = {}
        while j < len(b_calls) and b_calls[j] == i:
            branches[batch.tags[b_tags[j]]] = batch.outcomes[b_lo : b_ends[j]]
            b_lo = b_ends[j]
            j += 1
        yield (
            batch.names[kernel],
            iters,
            batch.addrs[lo:mid] if mid > lo else None,
            batch.addrs[mid:hi] if hi > mid else None,
            branches or None,
        )
        lo = hi


class PerCallTracer(Tracer):
    """A tracer that takes calls one at a time: a batch is its ``kernel()``
    calls, in order."""

    def append(self, batch):
        for name, iters, reads, writes, branches in unbatched(batch):
            self.kernel(name, iters, reads=reads, writes=writes, branches=branches)


class OracleTracer(PerCallTracer):
    """The per-call recorder: three ``InstrMix`` allocations and one event
    object per array, every call. ``events`` is the event list, ``totals``
    a :class:`TraceStream` carrying only the exact counters."""

    enabled = True

    def __init__(self, program, *, sample=1):
        self.program = program
        self.sample = int(sample)
        self.totals = TraceStream()
        self.events: list[object] = []
        self._invocation_count: dict[str, int] = {}

    def begin_frame(self, frame_type, index):
        self.totals.n_frames += 1

    def kernel(self, name, iters=1.0, *, reads=None, writes=None, branches=None):
        spec = self.program.kernel(name)
        if iters < 0:
            raise ValueError(f"iters must be >= 0, got {iters}")
        mix = spec.instr_mix.scaled(iters) + spec.call_overhead
        totals = self.totals
        totals.instr = totals.instr + mix
        by_kernel = totals.instr_by_kernel
        by_kernel[name] = by_kernel[name] + mix if name in by_kernel else mix
        totals.kernel_calls[name] = totals.kernel_calls.get(name, 0) + 1

        count = self._invocation_count.get(name, 0)
        self._invocation_count[name] = count + 1
        if count % self.sample != 0:
            return
        weight = float(self.sample)
        events = self.events
        events.append(KernelEvent(name, float(iters), weight))
        if reads is not None:
            arr = _as_addrs(reads)
            if arr.size:
                events.append(MemoryEvent(name, arr, "r", weight))
        if writes is not None:
            arr = _as_addrs(writes)
            if arr.size:
                events.append(MemoryEvent(name, arr, "w", weight))
        if branches:
            for tag, outcomes in branches.items():
                out = np.asarray(outcomes, dtype=bool).ravel()
                if out.size:
                    events.append(BranchEvent(f"{name}:{tag}", out, weight))


class TeeTracer(Tracer):
    """Forwards every callback to each of ``tracers``: one encode, several
    recordings of exactly the same calls (a batch to each tracer's own
    ``append``)."""

    enabled = True

    def __init__(self, *tracers):
        self.tracers = tracers

    def begin_frame(self, frame_type, index):
        for tracer in self.tracers:
            tracer.begin_frame(frame_type, index)

    def kernel(self, name, iters=1.0, **arrays):
        for tracer in self.tracers:
            tracer.kernel(name, iters, **arrays)

    def append(self, batch):
        for tracer in self.tracers:
            tracer.append(batch)

    def flush(self):
        super().flush()  # what the producer holds back, to every tracer
        for tracer in self.tracers:
            tracer.flush()


def assert_same_events(got, expected):
    """Two event sequences are the same events: type, order and every
    field, arrays by value and dtype."""
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert type(a) is type(b)
        if isinstance(a, KernelEvent):
            assert a == b
            assert type(a.iters) is type(a.weight) is float
            continue
        if isinstance(a, MemoryEvent):
            assert (a.kernel, a.kind, a.weight) == (b.kernel, b.kind, b.weight)
            x, y = a.addrs, b.addrs
        else:
            assert (a.site, a.weight) == (b.site, b.weight)
            x, y = a.outcomes, b.outcomes
        assert x.dtype == y.dtype and x.ndim == y.ndim == 1
        assert np.array_equal(x, y)


def assert_same_trace(stream: TraceStream, oracle: OracleTracer):
    """The sealed ``stream`` is what the per-call recorder built: the
    event sequence and every exact total, floats with ``==``."""
    assert_same_events(stream.events, oracle.events)
    totals = oracle.totals
    assert stream.instr == totals.instr
    assert stream.instr_by_kernel == totals.instr_by_kernel
    assert list(stream.instr_by_kernel) == list(totals.instr_by_kernel)
    assert stream.kernel_calls == totals.kernel_calls
    assert list(stream.kernel_calls) == list(totals.kernel_calls)
    assert stream.n_frames == totals.n_frames
    assert stream.columns.n_events == len(oracle.events)


# -- trace model --------------------------------------------------------

_COEFF_BLOCKS = (np.arange(16) * 64).astype(np.uint64)
_COEFF_MB_BYTES = 16 * 16 * 4
_INTERP_SCRATCH_ROWS = (np.arange(17) * 32).astype(np.uint64)
_BITSTREAM_BYTES = 1 << 22
_LOOKAHEAD_BASE = 0x0800_0000


def _no_report(*args, **kwargs) -> None:
    """Every report of an encode nobody records."""


class PerCallEncodeTrace:
    """``EncodeTrace`` as it was before it held reports back: every report
    builds its arrays at once (row templates plus a base, a second
    dead-zone ``quantize`` per trellis macroblock, ``levels != 0`` twice)
    and hands them over in one ``kernel()`` call each, one report per thing
    the encoder did — per macroblock too (``macroblock`` … ``recon_write``).
    :class:`PerCallRecords` feeds it the encoder's decision records."""

    def __init__(self, tracer, loop_opts, options, *, pad_h, pad_w, n_frames):
        self._tracer = tracer
        self._opts = loop_opts
        self._trellis = options.trellis
        self._pad_h, self._pad_w, self._n_frames = pad_h, pad_w, n_frames
        self._plane_bytes = plane_bytes = pad_h * pad_w
        self._n_mb_x = pad_w // 16
        self._heap = heap = AddressMap()
        self._src = [heap.alloc(f"src{i}", plane_bytes) for i in range(n_frames)]
        self._dpb = [heap.alloc(f"dpb{i}", plane_bytes) for i in range(options.refs + 2)]
        if self._opts.tile_transform:
            self._coeff_base = heap.alloc("coeff_mb", _COEFF_MB_BYTES)
            self._coeff_stride = 0
        else:
            n_mbs = (pad_h // 16) * self._n_mb_x
            self._coeff_base = heap.alloc("coeff_frame", n_mbs * _COEFF_MB_BYTES)
            self._coeff_stride = _COEFF_MB_BYTES
        self._bitstream = heap.alloc("bitstream", _BITSTREAM_BYTES)
        if not tracer.enabled:
            for name in dir(type(self)):
                if callable(getattr(type(self), name)) and not name.startswith("_"):
                    setattr(self, name, _no_report)
            return
        self._dpb_of = {}
        self._row_templates = {}
        self._interp_columns = (
            np.arange(17)[None, :] * pad_w + np.arange(0, 17, 2)[:, None]
        ).ravel().astype(np.uint64)

    @property
    def heap_bytes(self):
        return self._heap.bytes_allocated

    @cached_property
    def _interp_scratch(self):
        return self._heap.alloc("interp_scratch", 32 * 32)

    @cached_property
    def _recon_work(self):
        return self._heap.alloc("recon_work", self._plane_bytes)

    @cached_property
    def _src_work(self):
        return self._heap.alloc("src_work", self._plane_bytes)

    def _rows(self, base, y, x, rows, width):
        template = self._row_templates.get((rows, width))
        if template is None:
            starts = np.arange(rows) * self._pad_w
            template = np.concatenate([starts, starts + width - 1]).astype(np.uint64)
            self._row_templates[rows, width] = template
        return template + np.uint64(base + y * self._pad_w + x)

    def lookahead(self, width, height):
        rows = height // 2
        for i in range(self._n_frames):
            base = _LOOKAHEAD_BASE + (i % 8) * (1 << 20)
            addrs = (base + np.arange(rows) * (width // 2)).astype(np.uint64)
            self._tracer.kernel("lookahead", iters=rows, reads=addrs)

    def frame_setup(self, disp_idx):
        rows = self._pad_h
        addrs = (
            self._src[disp_idx] + np.arange(0, rows, 4) * self._pad_w
        ).astype(np.uint64)
        self._tracer.kernel("frame_setup", iters=rows, reads=addrs, writes=addrs)

    def frame_modes(self, mbs):
        self._tracer.kernel(
            "mode_decide",
            iters=0,
            branches={
                "skip": np.array([mb.mode is MBMode.SKIP for mb in mbs], dtype=bool),
                "intra": np.array([mb.mode.is_intra for mb in mbs], dtype=bool),
            },
        )

    def chroma_plane(self, plane):
        n_blocks = (plane.shape[0] // 8 + 1) * (plane.shape[1] // 8 + 1)
        self._tracer.kernel("dct4", iters=n_blocks * 4)
        self._tracer.kernel("quant", iters=n_blocks * 4)
        self._tracer.kernel("mc_copy", iters=n_blocks * 8)

    def deblock(self, before, after, n_edges):
        row_addrs = (
            self._recon_work + np.arange(0, self._pad_h, 2) * self._pad_w
        ).astype(np.uint64)
        filtered = (before[::4, ::4] != after[::4, ::4]).ravel()
        if self._opts.fuse_deblock:
            passes = [(n_edges, filtered)]
        else:
            half = filtered.size // 2
            passes = [
                (n_edges // 2, filtered[:half]),
                (n_edges - n_edges // 2, filtered[half:]),
            ]
        for iters, taken in passes:
            self._tracer.kernel(
                "deblock", iters=iters, reads=row_addrs, writes=row_addrs,
                branches={"filtered": taken},
            )

    def rc_update(self):
        self._tracer.kernel("rc_update", iters=1)

    def dpb_store(self, disp_idx):
        self._dpb_of[disp_idx] = self._dpb[len(self._dpb_of) % len(self._dpb)]

    def macroblock(self, mb_y, mb_x):
        self._y, self._x = mb_y * 16, mb_x * 16
        mb_index = mb_y * self._n_mb_x + mb_x
        self._coeff = _COEFF_BLOCKS + np.uint64(
            self._coeff_base + mb_index * self._coeff_stride
        )

    def me(self, refs, result, n_points):
        y, x = self._y, self._x
        if result.positions:
            dxs = [p[0] for p in result.positions]
            dys = [p[1] for p in result.positions]
            x_lo, x_hi = min(dxs), max(dxs) + 16
            y_lo, y_hi = min(dys), max(dys) + 16
        else:
            x_lo, x_hi, y_lo, y_hi = 0, 16, 0, 16
        reads = np.concatenate(
            [
                self._rows(
                    self._dpb_of[entry.display_index],
                    y + y_lo, max(x + x_lo, 0), y_hi - y_lo, x_hi - x_lo,
                )
                for entry in refs
            ]
        )
        branches = None
        if result.improvements:
            branches = {"improve": np.array(result.improvements, dtype=bool)}
        self._tracer.kernel("me_sad", iters=n_points * 16, reads=reads, branches=branches)

    def interp(self, ref):
        base = self._dpb_of[ref.display_index]
        if self._opts.interchange_interp:
            reads = self._rows(base, self._y, self._x, 17, 17)
        else:
            reads = self._interp_columns + np.uint64(
                base + self._y * self._pad_w + self._x
            )
        writes = _INTERP_SCRATCH_ROWS + np.uint64(self._interp_scratch)
        self._tracer.kernel("me_interp", iters=17, reads=reads, writes=writes)

    def partition_search(self, cand):
        self._tracer.kernel("me_sad", iters=cand.n_search_points * 8)
        self._tracer.kernel("mode_decide", iters=len(cand.mvs))

    def part_split(self, flags):
        if flags:
            self._tracer.kernel(
                "mode_decide", iters=len(flags),
                branches={"part_split": np.array(flags, dtype=bool)},
            )

    def intra_probe(self, kernel, modes):
        reads = self._rows(
            self._recon_work, max(self._y - 1, 0), max(self._x - 1, 0), 17, 17
        )
        self._tracer.kernel(kernel, iters=modes, reads=reads)

    def transform_path(self, levels, qp_mb, coeffs=None):
        src_reads = self._rows(self._src_work, self._y, self._x, 16, 16)
        coeff = self._coeff
        self._tracer.kernel("dct4", iters=16, reads=src_reads, writes=coeff)
        self._tracer.kernel(
            "quant", iters=16, reads=coeff, writes=coeff,
            branches={"nz": (levels.reshape(16, -1) != 0).ravel()},
        )
        if self._trellis > 0:
            n_nz = int(np.count_nonzero(levels))
            visited = 16 * 16 if self._trellis == 2 else max(n_nz * 4, 16)
            if coeffs is not None:
                plain = quantize(coeffs, qp_mb)
                changed = (plain != levels)[plain != 0]
                zeroed = changed if changed.size else np.zeros(1, dtype=bool)
            else:
                zeroed = np.zeros(max(n_nz, 1), dtype=bool)
            self._tracer.kernel(
                "trellis", iters=visited, reads=coeff, branches={"zeroed": zeroed}
            )
        self._tracer.kernel("idct4", iters=16, reads=coeff)

    def entropy_coeffs(self, levels, bits):
        flat = levels.reshape(-1)
        sig = flat != 0
        n_tokens = int(sig.sum())
        if n_tokens:
            mags = np.abs(flat[sig])
            big = np.concatenate([mags > t for t in (1, 3, 7)])
        else:
            big = np.zeros(1, dtype=bool)
        bs_addrs = np.uint64(self._bitstream) + np.arange(
            0, max(bits // 8, 1), max(1, bits // 64), dtype=np.uint64
        ) % np.uint64(_BITSTREAM_BYTES)
        self._tracer.kernel(
            "entropy_coeff", iters=max(n_tokens, 1), reads=self._coeff,
            writes=bs_addrs, branches={"sig": sig, "big": big},
        )
        self.entropy_header()

    def entropy_header(self):
        self._tracer.kernel("entropy_header", iters=1)

    def recon_write(self):
        writes = self._rows(self._recon_work, self._y, self._x, 16, 16)
        self._tracer.kernel("mc_copy", iters=16, writes=writes)


class PerCallRecords(PerCallEncodeTrace):
    """The per-call model taking the encoder's decision records: each
    :meth:`record` replays as the per-macroblock reports the encoder made
    before it held records, in the encoder's order (search, interpolation,
    partitions, their flags, the L1 search, the intra probes, coding, the
    reconstruction write). An encoder takes it in place of the model with
    ``monkeypatch.setattr(repro.codec.encoder, "EncodeTrace", PerCallRecords)``."""

    def record(self, mb, *, search, modes_tried, coeffs):
        self.macroblock(mb.mb_y, mb.mb_x)
        if search is not None:
            refs = [SimpleNamespace(display_index=ref) for ref in search.refs]
            n_points = sum(walk.n_points for walk in search.walks)
            self.me(refs, search.walks[search.ref], n_points)
            if search.subpel:
                self.interp(refs[search.ref])
            for points, n_partitions in search.partitions:
                candidate = SimpleNamespace(n_search_points=points, mvs=[None] * n_partitions)
                self.partition_search(candidate)
            self.part_split(search.split)
            if search.bi is not None:
                ref, walk = search.bi
                self.me([SimpleNamespace(display_index=ref)], walk, walk.n_points)
        for kernel, modes in zip(("intra_pred16", "intra_pred4"), modes_tried):
            self.intra_probe(kernel, modes)
        if mb.mode is MBMode.INTRA_4X4:
            self.intra_probe("intra_pred4", 16 * 3)
        if mb.mode is MBMode.SKIP:
            self.entropy_header()
        else:
            self.transform_path(mb.coeffs, mb.qp, coeffs)
            self.entropy_coeffs(mb.coeffs, mb.bits)
        self.recon_write()


# -- consumer -----------------------------------------------------------


def event_windows(events, bound):
    """The replay windows cut one event at a time."""
    window: list[object] = []
    addrs = 0
    for event in events:
        window.append(event)
        if isinstance(event, MemoryEvent):
            addrs += event.addrs.size
            if addrs >= bound:
                yield window, addrs
                window, addrs = [], 0
    if window:
        yield window, addrs


class PerCallICache(AnalyticICache):
    """The analytic i-cache accounted one ``invoke`` per kernel event."""

    def run(self, trace: TraceColumns) -> ICacheStats:
        self._clock_lines = 0.0  # cumulative fetched lines
        self._clock_pages = 0.0
        self._last_lines: dict[str, float] = {}
        self._last_pages: dict[str, float] = {}
        self.stats = ICacheStats()
        for event in trace.events:
            if isinstance(event, KernelEvent):
                self.invoke(event.kernel, event.weight)
        return self.stats

    def invoke(self, kernel: str, weight: float = 1.0) -> None:
        footprint = float(len(self.program.layout.fetch_line_addrs[kernel]))
        pages = footprint / _LINES_PER_PAGE * _PAGE_DISPERSION

        last = self._last_lines.get(kernel)
        if last is None:
            miss_prob = (1.0, 1.0, 1.0)  # compulsory
        else:
            intervening = self._clock_lines - last
            miss_prob = tuple(
                1.0 - math.exp(-intervening / cap) for cap in self._caps
            )
        lines_l1 = footprint * miss_prob[0] * _PREFETCH_RESIDUE * weight
        lines_l2 = footprint * miss_prob[0] * miss_prob[1] * _PREFETCH_RESIDUE * weight
        lines_l3 = (
            footprint
            * miss_prob[0]
            * miss_prob[1]
            * miss_prob[2]
            * _PREFETCH_RESIDUE
            * weight
        )
        self.stats.l1i_misses += lines_l1
        self.stats.l2i_misses += lines_l2
        self.stats.l3i_misses += lines_l3
        self.stats.fetch_lines += footprint * weight

        last_p = self._last_pages.get(kernel)
        if last_p is None:
            tlb_prob = 1.0
        else:
            tlb_prob = 1.0 - math.exp(
                -(self._clock_pages - last_p) / self._itlb_cap
            )
        self.stats.itlb_misses += pages * tlb_prob * weight

        self._clock_lines += footprint
        self._clock_pages += pages
        self._last_lines[kernel] = self._clock_lines
        self._last_pages[kernel] = self._clock_pages


def stable_order_packed(keys: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of int64 ``keys`` in ``[0, bound)``: ``key * n + pos``
    sorted, then ``% n``; the plain stable sort where that overflows."""
    n = keys.size
    if bound * n >= 1 << 62:
        return np.argsort(keys, kind="stable")
    packed = keys * n
    packed += np.arange(n)
    packed.sort()
    packed %= n
    return packed


def lru_window_int64(
    resident: np.ndarray, lines: np.ndarray, n_sets: int, assoc: int
) -> tuple[np.ndarray, np.ndarray]:
    """``cache._lru_window`` with both sorts through
    :func:`stable_order_packed`, distances and counts in ``intp``, the
    dense phase fixed at ``assoc`` steps and every far access compacted
    into the walk."""
    x = np.concatenate((resident, lines))
    if n_sets > 1:
        order = stable_order_packed(x % n_sets, n_sets)
        x = x[order]
    first = np.empty(x.size, dtype=bool)
    first[0] = True
    np.not_equal(x[1:], x[:-1], out=first[1:])
    c = x[first]
    n = c.size

    low = int(c.min())
    by_line = stable_order_packed(c - low, int(c.max()) - low + 1)
    step = by_line[1:] - by_line[:-1]
    sorted_lines = c[by_line]
    same = sorted_lines[1:] == sorted_lines[:-1]
    to_next = np.empty(n, dtype=np.intp)
    to_next[by_line[:-1]] = np.where(same, step, n)
    to_next[by_line[-1]] = n
    to_prev = np.empty(n, dtype=np.intp)
    to_prev[by_line[1:]] = np.where(same, step, 0)
    to_prev[by_line[0]] = 0

    miss = to_prev == 0
    far = np.flatnonzero(to_prev > assoc)
    if far.size:
        count = np.zeros(n, dtype=np.intp)
        for k in range(1, assoc + 1):
            count[k:] += to_next[:-k] > k
        idx, count, between, k = far, count[far], to_prev[far] - 1, assoc
        while True:
            evicted = count >= assoc
            miss[idx[evicted]] = True
            live = ~evicted & (between > k)
            idx, count, between = idx[live], count[live], between[live]
            if idx.size < 32:
                break
            k += 1
            count += to_next[idx - k] > k
        if idx.size:
            ramp = np.arange(n, 0, -1)
            for i, gap in zip(idx.tolist(), between.tolist()):
                distinct = np.count_nonzero(to_next[i - gap : i] > ramp[n - gap :])
                miss[i] = distinct >= assoc

    final = np.flatnonzero(to_next == n)
    if n_sets > 1:
        sets = c[final] % n_sets
        run_end = np.searchsorted(sets, sets, side="right")
        final = final[run_end - np.arange(final.size) <= assoc]
    else:
        final = final[-assoc:]

    full = np.zeros(x.size, dtype=bool)
    full[first] = miss
    if n_sets > 1:
        in_trace_order = np.empty(x.size, dtype=bool)
        in_trace_order[order] = full
        full = in_trace_order
    return full[resident.size :], c[final]


def history_keys_per_width(out: np.ndarray, histories):
    """Yields ``(h, keys)`` per history length, each key array assembled
    from the doubling pass's power-of-two patterns on its own."""
    partial = {h: (None, 0) for h in histories}
    power, width = out, 1
    while True:
        for h, (tail, covered) in list(partial.items()):
            if (h + 1) & width:
                key = power if tail is None else (power[:-covered] << covered) | tail[width:]
                if covered + width == h + 1:
                    del partial[h]
                    yield h, key
                else:
                    partial[h] = key, covered + width
        if not partial:
            return
        power = (power[:-width] << width) | power[width:]
        width *= 2


def count_mispredicts_unique(keys: np.ndarray, history_bits: int) -> float:
    """``branch._dense_mispredicts`` / ``_sorted_mispredicts`` on one
    history's own keys: a ``bincount`` of them, or ``np.unique``."""
    if (2 << history_bits) <= 4 * keys.size:
        counts = np.bincount(keys, minlength=2 << history_bits)
        not_taken, taken = counts[0::2], counts[1::2]
        steady = float(np.minimum(not_taken, taken).sum())
        training = float(np.count_nonzero(not_taken + taken))
    else:
        unique_keys, counts = np.unique(keys, return_counts=True)
        pats = unique_keys >> 1
        same = pats[1:] == pats[:-1]
        steady = float(np.minimum(counts[1:][same], counts[:-1][same]).sum())
        training = float(pats.size - np.count_nonzero(same))
    return steady + training


def two_level_by_history_per_width(outcomes: np.ndarray, histories) -> dict:
    """``branch._two_level_by_history`` with one int64 key array per
    history length (:func:`history_keys_per_width`), sparse counts by
    :func:`count_mispredicts_unique`, and the ``<= 62`` check reached only
    by sequences longer than the history."""
    n = outcomes.size
    result = {}
    packed = []
    for h in histories:
        if n == 0:
            result[h] = 0.0
        elif h <= 0:
            taken = float(np.count_nonzero(outcomes))
            result[h] = min(taken, n - taken) + 1.0
        elif n <= h:
            result[h] = n * 0.5
        elif h > 62:
            raise ValueError(f"history_bits must be <= 62, got {h}")
        else:
            packed.append(h)
    if packed:
        for h, keys in history_keys_per_width(outcomes.astype(np.int64), packed):
            result[h] = count_mispredicts_unique(keys, h) + h * 0.5
    return result


def evaluate_per_site(model, *, total_branches, branch_hints=False):
    """``BranchModel.evaluate`` with ``_site_mispredicts`` run on every
    site's stream, equal streams included."""
    recorded = 0.0
    mispredicts = 0.0
    for sequences in model._site_outcomes.values():
        outcomes = np.concatenate([a for a, _w in sequences])
        scale = float(np.array([w for _a, w in sequences]).mean())
        recorded += outcomes.size * scale
        mispredicts += model._site_mispredicts(outcomes, branch_hints) * scale
    loop_branches = max(total_branches - recorded, 0.0)
    mispredicts += loop_branches * branch_mod._LOOP_MISPREDICT_RATE[model.kind]
    return branch_mod.BranchStats(total_branches=total_branches, mispredicts=mispredicts)


def sliding_two_level_mispredicts(outcomes: np.ndarray, history_bits: int) -> float:
    """``two_level_mispredicts`` with every history rebuilt from a sliding
    window (``history_bits`` multiply-adds per branch) and sparse counting
    at every length."""
    n = outcomes.size
    if n == 0:
        return 0.0
    if history_bits <= 0:
        taken = float(np.count_nonzero(outcomes))
        return min(taken, n - taken) + 1.0
    if n <= history_bits:
        return n * 0.5
    out = outcomes.astype(np.int64)
    windows = sliding_window_view(out, history_bits)[:-1]  # history before each
    powers = (1 << np.arange(history_bits, dtype=np.int64))[::-1]
    patterns = windows @ powers
    nexts = out[history_bits:]
    keys = patterns * 2 + nexts
    unique_keys, counts = np.unique(keys, return_counts=True)
    pats = unique_keys >> 1
    same = pats[1:] == pats[:-1]
    steady = float(np.minimum(counts[1:][same], counts[:-1][same]).sum())
    training = float(pats.size - np.count_nonzero(same))
    warmup = history_bits * 0.5
    return steady + training + warmup


class PerEventHierarchy:
    """``HierarchyReplay``'s interface over the per-line oracle: one
    ``CacheHierarchy.access`` per memory event, load/store misses from
    per-event snapshots of each level's running miss total."""

    def __init__(self, params):
        self._levels = [Cache(p, f"l{i}") for i, p in enumerate(params)]
        self._hierarchy = CacheHierarchy(self._levels)
        self._memory: tuple[TraceColumns, list[MemoryEvent]] | None = None
        self.load_misses = [0.0] * len(params)
        self.store_misses = [0.0] * len(params)
        self.load_mem = self.store_mem = 0.0

    @property
    def accesses(self):
        return [c.stats.accesses for c in self._levels]

    def replay(self, trace: TraceColumns, lo: int = 0, hi: int | None = None):
        if self._memory is None or self._memory[0] is not trace:
            self._memory = trace, [
                e for e in trace.events if isinstance(e, MemoryEvent)
            ]
        for event in self._memory[1][lo:hi]:
            before = [c.stats.misses for c in self._levels]
            mem_before = self._hierarchy.mem_accesses
            self._hierarchy.access(event.addrs, event.weight)
            target = self.load_misses if event.kind == "r" else self.store_misses
            for i, (cache, b) in enumerate(zip(self._levels, before)):
                target[i] += cache.stats.misses - b
            if event.kind == "r":
                self.load_mem += self._hierarchy.mem_accesses - mem_before
            else:
                self.store_mem += self._hierarchy.mem_accesses - mem_before


def _windows_by_event(trace: TraceColumns, bound: int):
    """:func:`event_windows` in the shape ``TraceColumns.windows`` yields."""
    mem_lo = 0
    for window, n_addrs in event_windows(trace.events, bound):
        n_memory = sum(isinstance(e, MemoryEvent) for e in window)
        yield ReplayWindow(len(window), mem_lo, mem_lo + n_memory, n_addrs)
        mem_lo += n_memory


def _site_outcomes_by_event(trace: TraceColumns):
    return tuple(
        (e.site, e.outcomes, e.weight)
        for e in trace.events
        if isinstance(e, BranchEvent)
    )


@contextmanager
def per_event_models():
    """Inside the block ``simulate()`` takes its model steps per event —
    :func:`event_windows`, one i-cache ``invoke`` per kernel event, one
    predictor ``record`` per branch event, one per-line hierarchy walk per
    memory event — and assembles the report as always."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator_mod, "AnalyticICache", PerCallICache)
        patch.setattr(simulator_mod, "HierarchyReplay", PerEventHierarchy)
        patch.setattr(
            branch_mod, "two_level_mispredicts", sliding_two_level_mispredicts
        )
        patch.setattr(
            branch_mod,
            "_two_level_by_history",
            lambda out, histories: {
                h: sliding_two_level_mispredicts(out, h) for h in histories
            },
        )
        patch.setattr(TraceColumns, "windows", _windows_by_event)
        patch.setattr(
            TraceColumns, "site_outcomes", property(_site_outcomes_by_event)
        )
        yield


# -- decoder ------------------------------------------------------------

_check_fetch, _checked_qp = decoder_mod._check_fetch, decoder_mod._checked_qp
_SKIP, _INTER16, _INTER8, _INTER4, _BI, _INTRA16, _INTRA4 = (
    decoder_mod._SKIP, decoder_mod._INTER16, decoder_mod._INTER8,
    decoder_mod._INTER4, decoder_mod._BI, decoder_mod._INTRA16,
    decoder_mod._INTRA4,
)


def _fetch(ref, y, x, mv):
    fx, fy = mv.full_pel
    _check_fetch(ref, y + fy, x + fx)
    return fetch_prediction(ref, y, x, mv.dx, mv.dy)


class PerMacroblockDecoder(decoder_mod.Decoder):
    """``Decoder`` with each frame's luma decoded one macroblock at a time:
    parse it, place and inverse-transform its batch, predict, add, clip and
    trace it, then the next. ``frame_starts`` collects the bit position at
    which each frame's macroblock layer begins."""

    def __init__(self, *, tracer=None):
        super().__init__(tracer=tracer)
        self.frame_starts: list[int] = []

    def _decode_frame(
        self, reader, ftype, base_qp, disp_idx, anchors, n_mb_y, n_mb_x, pad_w
    ):
        self.frame_starts.append(reader._pos)
        recon = np.zeros((n_mb_y * 16, pad_w), dtype=np.uint8)
        past = [a for a in anchors if a.display_index < disp_idx]
        past.sort(key=lambda a: -a.display_index)
        future = [a for a in anchors if a.display_index > disp_idx]
        ref_l1 = min(future, key=lambda a: a.display_index) if future else None
        if not past and anchors:
            past = [anchors[0]]
        mv_grid = [[None] * n_mb_x for _ in range(n_mb_y)]
        for mb_y in range(n_mb_y):
            for mb_x in range(n_mb_x):
                self._decode_mb(
                    reader, recon, mv_grid, mb_y, mb_x, base_qp, past, ref_l1
                )
        return recon

    def _decode_mb(self, reader, recon, mv_grid, mb_y, mb_x, base_qp, past, ref_l1):
        y, x = mb_y * 16, mb_x * 16
        mode_id = read_ue(reader)
        pred_mv = predict_mv(mv_grid, mb_y, mb_x)

        if mode_id == _SKIP:
            if not past:
                raise BitstreamError("SKIP macroblock with no reference available")
            fx, fy = pred_mv.full_pel
            _check_fetch(past[0].padded, y + fy, x + fx)
            pred = past[0].padded.block(y + fy, x + fx).astype(np.float64)
            recon[y : y + 16, x : x + 16] = np.clip(np.round(pred), 0, 255).astype(
                np.uint8
            )
            mv_grid[mb_y][mb_x] = pred_mv
            return

        if mode_id == _INTRA4:
            qp = _checked_qp(base_qp + read_se(reader))
            self._decode_intra4(reader, recon, y, x, qp)
            mv_grid[mb_y][mb_x] = None
            return

        mvs = []
        mv1 = None
        intra_mode = IntraMode.DC
        if mode_id == _INTRA16:
            intra_id = read_ue(reader)
            if intra_id not in decoder_mod._INTRA_MODE_IDS:
                raise BitstreamError("unknown intra 16x16 mode id")
            intra_mode = IntraMode(intra_id)
        elif mode_id == _BI:
            ref0 = read_ue(reader)
            mvs = [
                MotionVector(
                    read_se(reader) + pred_mv.dx, read_se(reader) + pred_mv.dy, ref0
                )
            ]
            mv1 = MotionVector(
                read_se(reader) + pred_mv.dx, read_se(reader) + pred_mv.dy, 0
            )
        elif mode_id in (_INTER16, _INTER8, _INTER4):
            ref = read_ue(reader)
            n_mvs = {_INTER16: 1, _INTER8: 4, _INTER4: 16}[mode_id]
            for _ in range(n_mvs):
                mvs.append(
                    MotionVector(
                        read_se(reader) + pred_mv.dx,
                        read_se(reader) + pred_mv.dy,
                        ref,
                    )
                )
        else:
            raise BitstreamError(f"unsupported macroblock mode id {mode_id}")

        qp = _checked_qp(base_qp + read_se(reader))
        levels = decode_blocks(reader, 16)

        if mode_id == _INTRA16:
            prediction = predict_16x16(recon, y, x, intra_mode).astype(np.float64)
        elif mode_id == _BI:
            if mv1 is None or ref_l1 is None or mvs[0].ref >= len(past):
                raise BitstreamError("BI macroblock references a missing anchor")
            pred0 = _fetch(past[mvs[0].ref].padded, y, x, mvs[0])
            pred1 = _fetch(ref_l1.padded, y, x, mv1)
            prediction = (pred0 + pred1) / 2.0
        else:
            if mvs[0].ref >= len(past):
                raise BitstreamError("inter macroblock references a missing anchor")
            ref_plane = past[mvs[0].ref].padded
            if mode_id == _INTER16:
                prediction = _fetch(ref_plane, y, x, mvs[0])
            else:
                size = 8 if mode_id == _INTER8 else 4
                n = 16 // size
                prediction = np.zeros((16, 16), dtype=np.float64)
                for i, mv in enumerate(mvs):
                    py, px = divmod(i, n)
                    fx, fy = mv.full_pel
                    _check_fetch(
                        ref_plane, y + py * size + fy, x + px * size + fx, size
                    )
                    prediction[
                        py * size : (py + 1) * size, px * size : (px + 1) * size
                    ] = ref_plane.block(
                        y + py * size + fy, x + px * size + fx, size
                    ).astype(np.float64)

        residual = unblockify_16x16(inverse_4x4(dequantize(levels, qp)))
        recon[y : y + 16, x : x + 16] = np.clip(
            np.round(prediction + residual), 0, 255
        ).astype(np.uint8)
        mv_grid[mb_y][mb_x] = mvs[0] if mvs else None
        if self.tracer.enabled:
            n_tokens = int(np.count_nonzero(levels))
            self.tracer.kernel("entropy_coeff", iters=max(n_tokens, 1))
            self.tracer.kernel("idct4", iters=16)
            self.tracer.kernel("mc_copy", iters=16)

    def _decode_intra4(self, reader, recon, y0, x0, qp):
        batches = BlockBatches(reader)
        modes = batches.read(16, tagged=True)
        levels = batches.levels()
        if not set(modes) <= {0, 1, 2}:
            raise BitstreamError("unknown intra 4x4 mode id")
        residuals = inverse_4x4(dequantize(levels, qp))
        for i, mode in enumerate(modes):
            y = y0 + (i >> 2) * 4
            x = x0 + (i & 3) * 4
            pred = self._intra4_prediction(recon, y, x, mode)
            recon[y : y + 4, x : x + 4] = np.clip(
                np.round(pred + residuals[i]), 0, 255
            ).astype(np.uint8)

    @staticmethod
    def _intra4_prediction(recon, y, x, mode):
        top = recon[y - 1, x : x + 4].astype(np.float64) if y > 0 else None
        left = recon[y : y + 4, x - 1].astype(np.float64) if x > 0 else None
        if mode == 1 and top is not None:
            return np.tile(top, (4, 1))
        if mode == 2 and left is not None:
            return np.tile(left[:, None], (1, 4))
        if top is not None and left is not None:
            dc = (top.sum() + left.sum()) / 8.0
        elif top is not None:
            dc = top.mean()
        elif left is not None:
            dc = left.mean()
        else:
            dc = 128.0
        return np.full((4, 4), dc)


# -- encoder folds --------------------------------------------------------

_PROBE_SHIFTS = tuple(
    (dy, dx) for dy in (-2, -1, 0, 1, 2) for dx in (-2, -1, 0, 1, 2)
)


def inter_cost_per_shift(probe: np.ndarray, ref_probe: np.ndarray) -> float:
    """``gop._inter_cost`` one translation at a time: ``np.roll`` the
    reference, float64 4x4 block SADs, a running minimum."""
    h = (probe.shape[0] // 4) * 4
    w = (probe.shape[1] // 4) * 4
    cur = probe[:h, :w]
    nby, nbx = h // 4, w // 4
    best = np.full((nby, nbx), np.inf)
    for dy, dx in _PROBE_SHIFTS:
        shifted = np.roll(ref_probe, (dy, dx), axis=(0, 1))[:h, :w]
        diff = np.abs(cur - shifted)
        block_sums = diff.reshape(nby, 4, nbx, 4).sum(axis=(1, 3))
        np.minimum(best, block_sums, out=best)
    return float(best.sum()) + 1.0


def scene_change_score(cur: np.ndarray, prev: np.ndarray) -> float:
    """``pcost / icost`` of two loose frames, from their own probes: the
    ratio ``plan_gop`` compares with ``(100 - scenecut) / 100`` for each
    frame and its predecessor. Identical frames score ~0; unrelated frames
    score above 1."""
    pc = gop_mod._probe(cur)
    return float(gop_mod._inter_cost(pc, gop_mod._probe(prev)) / gop_mod._intra_cost(pc))


def fold_batch_numpy(
    writer: BitWriter, arr: np.ndarray, tags: list[int] | None
) -> list[int]:
    """``entropy._fold_batch`` with every codeword and width computed in
    NumPy (``frexp`` bit lengths, ``bincount`` per-block widths) and a Python
    loop over all blocks only to concatenate them."""
    arr = np.asarray(arr, dtype=np.int64)
    n = arr.shape[0]
    scans = arr[:, ZIGZAG_4X4[0], ZIGZAG_4X4[1]]  # (n, 16)
    nz_mask = scans != 0
    block_idx, pos = np.nonzero(nz_mask)
    levels = scans[block_idx, pos]
    prev = np.empty_like(pos)
    if pos.size:
        prev[0] = -1
        prev[1:] = np.where(block_idx[1:] == block_idx[:-1], pos[:-1], -1)
    run_codes = pos - prev
    level_codes = np.where(levels > 0, 2 * levels, 1 - 2 * levels)
    header_codes = nz_mask.sum(axis=1) + 1
    run_widths = 2 * np.frexp(run_codes.astype(np.float64))[1] - 1
    level_widths = 2 * np.frexp(level_codes.astype(np.float64))[1] - 1
    header_widths = 2 * np.frexp(header_codes.astype(np.float64))[1] - 1
    per_block = header_widths + np.bincount(
        block_idx, weights=run_widths + level_widths, minlength=n
    ).astype(np.int64)

    bi = block_idx.tolist()
    rc, rw = run_codes.tolist(), run_widths.tolist()
    lc, lw = level_codes.tolist(), level_widths.tolist()
    head = header_codes.tolist()
    widths = per_block.tolist()
    if tags is not None:
        head_widths = header_widths.tolist()
        for b, tag in enumerate(tags):
            head[b] |= (tag + 1) << head_widths[b]
            widths[b] += 2 * (tag + 1).bit_length() - 1
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


def level_bits_log2(level):
    """``quant._level_bits`` through ``np.log2``."""
    mag = np.abs(level)
    return 2 * np.floor(np.log2(2 * np.asarray(mag, dtype=np.float64) + 1)).astype(
        np.int64
    ) + 1


def trellis_quantize_two_pass(coeffs, qp, *, level=1):
    """``quant.trellis_quantize`` starting from a second ``quantize`` call
    (dead zone 0.5), with every cost masked by ``np.where``."""
    if level not in (0, 1, 2):
        raise ValueError(f"trellis level must be 0, 1 or 2, got {level}")
    if level == 0:
        return quantize(coeffs, qp)
    base = quantize(coeffs, qp, deadzone=0.5)
    arr = np.asarray(coeffs, dtype=np.float64)
    step = qstep(qp)
    lam = rd_lambda(qp)
    levels = base.astype(np.float64)
    nz = levels != 0
    if not np.any(nz):
        return base
    d_keep = (arr - levels * step) ** 2
    d_zero = arr**2
    r_keep = level_bits_log2(levels)
    j_keep = d_keep + lam * np.where(nz, r_keep, 1)
    j_zero = d_zero + lam * 1
    choose_zero = nz & (j_zero < j_keep)
    out = np.where(choose_zero, 0.0, levels)
    if level == 2:
        big = np.abs(out) > 1
        if np.any(big):
            lowered = out - np.sign(out)
            d_low = (arr - lowered * step) ** 2
            j_low = d_low + lam * level_bits_log2(lowered)
            j_cur = (arr - out * step) ** 2 + lam * np.where(
                out != 0, level_bits_log2(out), 1
            )
            out = np.where(big & (j_low < j_cur), lowered, out)
    return out.astype(np.int32)


# -- codec bodies ---------------------------------------------------------
#
# The scalar bodies the codec's batched kernels replaced, whole, each under
# the name of the ``src`` function (or method) it stands for. They call one
# another, never the ``src`` kernel they replace.


def forward_4x4(blocks):
    """``transform.forward_4x4`` as a per-call ``einsum(optimize=True)``."""
    arr = transform_mod._as_blocks(blocks, "blocks")
    return np.einsum("ij,njk,lk->nil", _T, arr, _T, optimize=True)


def inverse_4x4(coeffs):
    arr = transform_mod._as_blocks(coeffs, "coeffs")
    return np.einsum("ji,njk,kl->nil", _T, arr, _T, optimize=True)


def satd_4x4(blocks):
    """SATD of a ``(n, 4, 4)`` block set: the absolute 4x4 Hadamard
    coefficients summed and halved, as a per-call ``einsum``."""
    arr = transform_mod._as_blocks(blocks, "blocks")
    trans = np.einsum("ij,njk,lk->nil", _H4, arr, _H4, optimize=True)
    return float(np.sum(np.abs(trans)) / 2.0)


def satd_batch(block_sets):
    """One :func:`satd_4x4` per candidate."""
    arr = np.asarray(block_sets, dtype=np.float64)
    if arr.ndim != 4 or arr.shape[-2:] != (4, 4):
        raise ValueError(f"expected (k, n, 4, 4) block sets, got {arr.shape}")
    return np.array([satd_4x4(arr[i]) for i in range(arr.shape[0])])


def satd_16x16(diff):
    """The sixteen 4x4 tiles of ``diff`` through :func:`satd_4x4`'s einsum."""
    blocks = diff.reshape(4, 4, 4, 4).transpose(0, 2, 1, 3).reshape(16, 4, 4)
    trans = np.einsum("ij,njk,lk->nil", _H4, blocks, _H4, optimize=True)
    return float(np.sum(np.abs(trans)) / 2.0)


def hadamard_sad_batch(cur, candidates):
    """One float64 ``satd_16x16`` of the difference per candidate."""
    cands = np.asarray(candidates)
    if cur.shape != (16, 16) or cands.ndim != 3 or cands.shape[-2:] != (16, 16):
        raise ValueError("hadamard_sad_batch expects 16x16 blocks")
    return np.array(
        [
            satd_16x16(cur.astype(np.float64) - cands[i].astype(np.float64))
            for i in range(len(cands))
        ]
    )


def write_bit(writer, bit):
    """One bit onto ``writer``'s pending byte, MSB first, flushing it when
    full: the per-bit primitive :func:`write_bits` repeats."""
    writer._cur = (writer._cur << 1) | (bit & 1)
    writer._nbits += 1
    writer.bit_count += 1
    if writer._nbits == 8:
        writer._bytes.append(writer._cur)
        writer._cur = 0
        writer._nbits = 0


def write_bits(writer, value, width):
    """``BitWriter.append_bits`` one :func:`write_bit` per bit."""
    if width < 0:
        raise ValueError("width must be >= 0")
    for shift in range(width - 1, -1, -1):
        write_bit(writer, (value >> shift) & 1)


def write_ue(writer, value):
    """The prefix zeros, then the code, each through :func:`write_bits`."""
    if value < 0:
        raise ValueError(f"ue() requires value >= 0, got {value}")
    code = value + 1
    width = code.bit_length()
    write_bits(writer, 0, width - 1)
    write_bits(writer, code, width)


def write_se(writer, value):
    """``entropy.write_se`` (one body) through this module's :func:`write_ue`."""
    write_ue(writer, (2 * value - 1) if value > 0 else (-2 * value))


def encode_block(writer, block):
    """One 4x4 block run-level coded, one :func:`write_ue` per code:
    ue(count), then ue(zero run) and se(level) per nonzero level in zigzag
    order; returns the bits written."""
    start = writer.bit_count
    scan = entropy_mod._checked_batch(np.asarray(block)[None])[0][ZIGZAG_4X4]
    nz_positions = np.nonzero(scan)[0]
    write_ue(writer, len(nz_positions))
    prev = -1
    for pos in nz_positions:
        write_ue(writer, int(pos - prev - 1))  # zero run
        write_se(writer, int(scan[pos]))
        prev = int(pos)
    return writer.bit_count - start


def encode_blocks(writer, blocks):
    """One :func:`encode_block` per block."""
    return [encode_block(writer, b) for b in entropy_mod._checked_batch(blocks)]


def tokenize_nothing(self):
    """``BitReader._fill`` that takes no code: every read falls to the
    bit-serial loop and every batch to the per-block one — the reader that
    reads one bit per ``read_bit`` call."""
    return False


class SerialBitReader(BitReader):
    """One reader that tokenizes nothing, beside tokenizing ones."""

    _fill = tokenize_nothing


def half_pel_block(self, y4, x4, size=16):
    """``PaddedReference.half_pel_block`` interpolating the block in place
    from float quarter-pel coordinates."""
    y = y4 / 4.0 + self.pad
    x = x4 / 4.0 + self.pad
    y0, x0 = int(np.floor(y)), int(np.floor(x))
    fy, fx = y - y0, x - x0
    a = self.plane[y0 : y0 + size + 1, x0 : x0 + size + 1].astype(np.float64)
    top = a[:size, :size] * (1 - fx) + a[:size, 1 : size + 1] * fx
    bot = a[1 : size + 1, :size] * (1 - fx) + a[1 : size + 1, 1 : size + 1] * fx
    return top * (1 - fy) + bot * fy


def _sad(cur, ref_block):
    return float(np.sum(np.abs(cur.astype(np.int64) - ref_block.astype(np.int64))))


def _pattern_search(cur, ref, start, offsets, merange, base_y, base_x, *, max_iters=64):
    """One ``_sad`` call per candidate."""
    best_dx, best_dy = start
    best_cost = _sad(cur, ref.block(base_y + best_dy, base_x + best_dx))
    n_points = 1
    positions = [(best_dx, best_dy)]
    improvements = [True]
    seen = {(best_dx, best_dy)}
    for _ in range(max_iters):
        improved = False
        center = (best_dx, best_dy)
        for dx, dy in offsets:
            cx, cy = center[0] + dx, center[1] + dy
            if abs(cx) > merange or abs(cy) > merange or (cx, cy) in seen:
                continue
            seen.add((cx, cy))
            cost = _sad(cur, ref.block(base_y + cy, base_x + cx))
            n_points += 1
            positions.append((cx, cy))
            better = cost < best_cost
            improvements.append(better)
            if better:
                best_cost = cost
                best_dx, best_dy = cx, cy
                improved = True
        if not improved:
            break
    return MotionSearchResult(
        mv_x=best_dx * 4, mv_y=best_dy * 4, cost=best_cost, n_points=n_points,
        positions=positions, improvements=improvements,
    )


def _hex_search(cur, ref, merange, base_y, base_x, pred):
    coarse = _pattern_search(cur, ref, pred, _HEX_OFFSETS, merange, base_y, base_x)
    fine = _pattern_search(
        cur, ref, (coarse.mv_x // 4, coarse.mv_y // 4), _DIA_OFFSETS, merange,
        base_y, base_x, max_iters=2,
    )
    fine.n_points += coarse.n_points
    fine.positions = coarse.positions + fine.positions
    fine.improvements = coarse.improvements + fine.improvements
    return fine


def _umh_search(cur, ref, merange, base_y, base_x, pred):
    best = _pattern_search(
        cur, ref, pred, _DIA_OFFSETS, merange, base_y, base_x, max_iters=1
    )
    n_points = best.n_points
    positions = list(best.positions)
    improvements = list(best.improvements)
    best_dx, best_dy = best.mv_x // 4, best.mv_y // 4
    best_cost = best.cost
    cross = [
        (cx, cy)
        for d in range(2, merange + 1, 2)
        for cx, cy in ((d, 0), (-d, 0), (0, d), (0, -d))
    ]
    for cx, cy in cross:
        cost = _sad(cur, ref.block(base_y + cy, base_x + cx))
        n_points += 1
        positions.append((cx, cy))
        better = cost < best_cost
        improvements.append(better)
        if better:
            best_cost, best_dx, best_dy = cost, cx, cy
    for radius in (2, 4, 8):
        if radius > merange:
            break
        for hx, hy in _HEX_OFFSETS:
            cx = best_dx + hx * radius // 2
            cy = best_dy + hy * radius // 2
            if abs(cx) > merange or abs(cy) > merange:
                continue
            cost = _sad(cur, ref.block(base_y + cy, base_x + cx))
            n_points += 1
            positions.append((cx, cy))
            better = cost < best_cost
            improvements.append(better)
            if better:
                best_cost, best_dx, best_dy = cost, cx, cy
    refine = _hex_search(cur, ref, merange, base_y, base_x, (best_dx, best_dy))
    if refine.cost < best_cost:
        result = refine
    else:
        result = MotionSearchResult(
            mv_x=best_dx * 4, mv_y=best_dy * 4, cost=best_cost, n_points=0
        )
    result.n_points += n_points
    result.positions = positions + result.positions
    result.improvements = improvements + result.improvements
    return result


def _esa_search(cur, ref, merange, base_y, base_x, *, use_satd):
    """The window's SADs at once (as ever), tesa's SATD re-scores one
    float64 ``satd_16x16`` at a time."""
    y0 = base_y - merange + ref.pad
    x0 = base_x - merange + ref.pad
    span = 2 * merange + 16
    window = ref.plane[y0 : y0 + span, x0 : x0 + span]
    views = sliding_window_view(window, (16, 16))
    sads = np.abs(views.astype(np.int64) - cur.astype(np.int64)).sum(axis=(2, 3))
    n_points = sads.size
    if use_satd:
        best_cost = np.inf
        best_pos = (0, 0)
        for f in np.argsort(sads, axis=None)[:8]:
            iy, ix = divmod(int(f), sads.shape[1])
            cost = satd_16x16(cur.astype(np.float64) - views[iy, ix].astype(np.float64))
            n_points += 1
            if cost < best_cost:
                best_cost = cost
                best_pos = (ix - merange, iy - merange)
        best_dx, best_dy = best_pos
    else:
        iy, ix = np.unravel_index(int(np.argmin(sads)), sads.shape)
        best_dx, best_dy = int(ix) - merange, int(iy) - merange
        best_cost = float(sads[iy, ix])
    positions = [
        (dx, dy)
        for dy in range(-merange, merange + 1, max(1, merange // 4))
        for dx in range(-merange, merange + 1, max(1, merange // 4))
    ]
    return MotionSearchResult(
        mv_x=best_dx * 4, mv_y=best_dy * 4, cost=float(best_cost),
        n_points=int(n_points), positions=positions,
    )


def motion_search(
    cur, ref, base_y, base_x, *, method="hex", merange=16, pred_mv=(0, 0)
):
    """``motion.motion_search`` scoring every candidate on its own fetch."""
    if cur.shape != (16, 16):
        raise ValueError(f"expected 16x16 current block, got {cur.shape}")
    start = (
        int(max(-merange, min(merange, pred_mv[0]))),
        int(max(-merange, min(merange, pred_mv[1]))),
    )
    args = (cur, ref, merange, base_y, base_x)
    if method == "dia":
        return _pattern_search(cur, ref, start, _DIA_OFFSETS, merange, base_y, base_x)
    if method == "hex":
        return _hex_search(*args, start)
    if method == "umh":
        return _umh_search(*args, start)
    if method in ("esa", "tesa"):
        return _esa_search(*args, use_satd=method == "tesa")
    raise ValueError(f"unknown motion estimation method {method!r}")


def subpel_refine(cur, ref, base_y, base_x, result, *, subme):
    """``motion.subpel_refine`` recomputing every visit's cost from an
    in-place interpolation."""
    if subme < 2:
        return result
    steps = [2] + ([1] if subme >= 4 else [])
    use_satd = subme >= 6

    def cost_at(y4, x4):
        block = half_pel_block(ref, base_y * 4 + y4, base_x * 4 + x4)
        if use_satd:
            return satd_16x16(cur.astype(np.float64) - block)
        return float(np.sum(np.abs(cur.astype(np.float64) - block)))

    best_x, best_y = result.mv_x, result.mv_y
    best_cost = cost_at(best_y, best_x)
    n_points = result.n_points + 1
    for step in steps:
        improved = True
        iters = 0
        while improved and iters < 4:
            improved = False
            iters += 1
            for dx, dy in _DIA_OFFSETS:
                cx, cy = best_x + dx * step, best_y + dy * step
                cost = cost_at(cy, cx)
                n_points += 1
                if cost < best_cost:
                    best_cost, best_x, best_y = cost, cx, cy
                    improved = True
    return MotionSearchResult(
        mv_x=best_x, mv_y=best_y, cost=best_cost, n_points=n_points,
        positions=result.positions, improvements=result.improvements,
    )


def _plane_pred(top, left, size):
    """``intra._plane_pred`` through ``np.polyfit`` per edge."""
    idx = np.arange(size, dtype=np.float64)
    h_grad = float(np.polyfit(idx, top, 1)[0])
    v_grad = float(np.polyfit(idx, left, 1)[0])
    base = (top[-1] + left[-1]) / 2.0
    yy, xx = np.meshgrid(idx - (size - 1), idx - (size - 1), indexing="ij")
    return base + h_grad * xx + v_grad * yy


def best_intra_16x16(source, recon, mb_y, mb_x):
    """One ``predict_16x16`` and one SAD per mode (which plane-fits through
    :func:`_plane_pred` under :func:`oracle_codec`)."""
    if source.shape != (16, 16):
        raise ValueError(f"expected 16x16 source block, got {source.shape}")
    src = source.astype(np.float64)
    best = None
    for mode in IntraMode:
        pred = predict_16x16(recon, mb_y, mb_x, mode)
        sad = float(np.sum(np.abs(src - pred)))
        if best is None or sad < best.sad:
            best = intra_mod.IntraPrediction(mode, pred, sad, len(IntraMode))
    return best


def predict_4x4_blocks(source, recon, mb_y, mb_x):
    """Sixteen blocks in raster order over a working reconstruction, each
    scoring DC / V / H on its own."""
    if source.shape != (16, 16):
        raise ValueError(f"expected 16x16 source block, got {source.shape}")
    prediction = np.zeros((16, 16), dtype=np.uint8)
    work = recon.copy()
    work[mb_y : mb_y + 16, mb_x : mb_x + 16] = source
    total_sad = 0.0
    modes_tried = 0
    for by in range(4):
        for bx in range(4):
            y = mb_y + by * 4
            x = mb_x + bx * 4
            src = source[by * 4 : by * 4 + 4, bx * 4 : bx * 4 + 4].astype(np.float64)
            top, left = intra_mod._neighbors(work, y, x, 4)
            candidates = [intra_mod._dc_pred(top, left, 4)]
            if top is not None:
                candidates.append(np.tile(top, (4, 1)))
            if left is not None:
                candidates.append(np.tile(left[:, None], (1, 4)))
            best_pred = None
            best_sad = np.inf
            for cand in candidates:
                modes_tried += 1
                sad = float(np.sum(np.abs(src - cand)))
                if sad < best_sad:
                    best_sad = sad
                    best_pred = cand
            prediction[by * 4 : by * 4 + 4, bx * 4 : bx * 4 + 4] = np.clip(
                np.round(best_pred), 0, 255
            ).astype(np.uint8)
            total_sad += best_sad
    return prediction, total_sad, modes_tried


def _refine_partition(cur_part, ref, part_y, part_x, start_mv, size):
    """Small diamond refinement of one sub-partition from its own fetches."""
    best_dx, best_dy = start_mv
    cur64 = cur_part.astype(np.int64)

    def sad_at(dx, dy):
        block = ref.block(part_y + dy, part_x + dx, size)
        return float(np.sum(np.abs(cur64 - block.astype(np.int64))))

    best_cost = sad_at(best_dx, best_dy)
    n_points = 1
    for _ in range(2):
        improved = False
        for dx, dy in _DIA_OFFSETS:
            cost = sad_at(best_dx + dx, best_dy + dy)
            n_points += 1
            if cost < best_cost:
                best_cost = cost
                best_dx += dx
                best_dy += dy
                improved = True
        if not improved:
            break
    return (best_dx, best_dy), best_cost, n_points


def refine_partitions_each(cur, ref, base_y, base_x, start_mv, size):
    """``mbdecision._refine_partitions_shared`` as one
    :func:`_refine_partition` per partition, in raster order."""
    return [
        _refine_partition(
            cur[y0 : y0 + size, x0 : x0 + size],
            ref, base_y + y0, base_x + x0, start_mv, size,
        )
        for y0 in range(0, 16, size)
        for x0 in range(0, 16, size)
    ]


def filter_edges_each(plane, axis, alpha, beta):
    """``deblock._filter_edges`` one edge at a time."""
    n = plane.shape[axis]
    for edge in range(4, n, 4):
        if axis == 0:
            p1 = plane[edge - 2, :]
            p0 = plane[edge - 1, :]
            q0 = plane[edge, :]
            q1 = plane[edge + 1, :] if edge + 1 < n else q0
        else:
            p1 = plane[:, edge - 2]
            p0 = plane[:, edge - 1]
            q0 = plane[:, edge]
            q1 = plane[:, edge + 1] if edge + 1 < plane.shape[1] else q0
        d_edge = np.abs(p0 - q0)
        d_p = np.abs(p1 - p0)
        d_q = np.abs(q1 - q0)
        mask = (d_edge < alpha) & (d_edge > 0) & (d_p < beta) & (d_q < beta)
        if not np.any(mask):
            continue
        delta = (q0 - p0) / 4.0
        p0_new = np.where(mask, p0 + delta, p0)
        q0_new = np.where(mask, q0 - delta, q0)
        if axis == 0:
            plane[edge - 1, :] = p0_new
            plane[edge, :] = q0_new
        else:
            plane[:, edge - 1] = p0_new
            plane[:, edge] = q0_new


def encode_chroma_plane(writer, plane, prev_recon, luma_qp, *, trellis=0):
    """``chroma.encode_chroma_plane`` fetching and scoring each block's
    candidates (temporal first, then DC) on their own."""
    src = chroma_mod._pad_to_block(np.asarray(plane, dtype=np.uint8))
    qp = chroma_mod.chroma_qp(luma_qp)
    h, w = src.shape
    recon = np.zeros((h, w), dtype=np.uint8)
    for y in range(0, h, 8):
        for x in range(0, w, 8):
            block = src[y : y + 8, x : x + 8].astype(np.float64)
            candidates = [(1, chroma_mod._dc_prediction(recon, y, x))]
            if prev_recon is not None:
                temporal = prev_recon[y : y + 8, x : x + 8].astype(np.float64)
                candidates.insert(0, (0, temporal))
            mode, pred = min(
                candidates, key=lambda c: float(np.sum(np.abs(block - c[1])))
            )
            write_ue(writer, mode)
            levels = trellis_quantize(
                forward_4x4(chroma_mod._blockify8(block - pred)), qp, level=trellis
            )
            encode_blocks(writer, levels)
            residual = chroma_mod._unblockify8(inverse_4x4(dequantize(levels, qp)))
            recon[y : y + 8, x : x + 8] = np.clip(
                np.round(pred + residual), 0, 255
            ).astype(np.uint8)
    return recon


def _best_intra4_block(recon, src4, y, x):
    """DC(0) / V(1) / H(2) for one 4x4 block from reconstructed pixels."""
    top = recon[y - 1, x : x + 4].astype(np.float64) if y > 0 else None
    left = recon[y : y + 4, x - 1].astype(np.float64) if x > 0 else None
    if top is not None and left is not None:
        dc = (top.sum() + left.sum()) / 8.0
    elif top is not None:
        dc = top.mean()
    elif left is not None:
        dc = left.mean()
    else:
        dc = 128.0
    candidates = [(0, np.full((4, 4), dc))]
    if top is not None:
        candidates.append((1, np.tile(top, (4, 1))))
    if left is not None:
        candidates.append((2, np.tile(left[:, None], (1, 4))))
    src = np.asarray(src4, dtype=np.float64)
    best_mode, best_pred, best_sad = 0, candidates[0][1], np.inf
    for mode, pred in candidates:
        sad = float(np.sum(np.abs(src - pred)))
        if sad < best_sad:
            best_mode, best_pred, best_sad = mode, pred, sad
    return best_mode, best_pred


def _code_intra4_sequential(ctx, y0, x0, qp_mb, trellis, writer):
    """Predict, code, emit and reconstruct one 4x4 block at a time, in
    raster order."""
    levels_all = np.zeros((16, 4, 4), dtype=np.int32)
    modes4 = []
    srcs_grid = ctx.src_mb_f(y0, x0).reshape(4, 4, 4, 4).transpose(0, 2, 1, 3)
    for by in range(4):
        for bx in range(4):
            y = y0 + by * 4
            x = x0 + bx * 4
            src4f = srcs_grid[by, bx]
            mode, pred = _best_intra4_block(ctx.recon, src4f, y, x)
            modes4.append(int(mode))
            write_ue(writer, int(mode))
            coeffs = forward_4x4((src4f - pred)[None])[0]
            levels = trellis_quantize(coeffs[None], qp_mb, level=trellis)[0]
            levels_all[by * 4 + bx] = levels
            encode_block(writer, levels)
            ctx.recon[y : y + 4, x : x + 4] = np.minimum(
                np.maximum(
                    np.round(pred + inverse_4x4(dequantize(levels[None], qp_mb))[0]),
                    0.0,
                ),
                255.0,
            ).astype(np.uint8)
    return modes4, levels_all


def emit_intra4_sequential(self, ctx, mb_y, mb_x, qp_mb, writer, rc):
    """``Encoder._emit_intra4`` walking the sixteen blocks in raster order,
    each written as it is coded."""
    y0, x0 = mb_y * 16, mb_x * 16
    bits_before = writer.bit_count
    write_ue(writer, MODE_IDS[MBMode.INTRA_4X4])
    write_se(writer, qp_mb - ctx.base_qp)
    modes4, levels_all = _code_intra4_sequential(
        ctx, y0, x0, qp_mb, self.options.trellis, writer
    )
    bits = writer.bit_count - bits_before
    ctx.mv_grid[mb_y][mb_x] = None
    rc.note_mb_bits(bits)
    return CodedMacroblock(
        mb_x=mb_x, mb_y=mb_y, mode=MBMode.INTRA_4X4, qp=qp_mb,
        intra_modes4=modes4, coeffs=levels_all, bits=bits,
    )


#: (owner, name, oracle): each ``src`` body and the oracle that replaces it.
_CODEC_ORACLES = (
    (transform_mod, "forward_4x4", forward_4x4),
    (transform_mod, "inverse_4x4", inverse_4x4),
    (transform_mod, "satd_batch", satd_batch),
    (transform_mod, "satd_16x16", satd_16x16),
    (transform_mod, "hadamard_sad_batch", hadamard_sad_batch),
    (entropy_mod, "write_ue", write_ue),
    (entropy_mod, "encode_blocks", encode_blocks),
    (BitReader, "_fill", tokenize_nothing),
    (motion_mod.PaddedReference, "half_pel_block", half_pel_block),
    (motion_mod, "motion_search", motion_search),
    (motion_mod, "subpel_refine", subpel_refine),
    (intra_mod, "_plane_pred", _plane_pred),
    (intra_mod, "best_intra_16x16", best_intra_16x16),
    (intra_mod, "predict_4x4_blocks", predict_4x4_blocks),
    (mbdecision_mod, "_refine_partitions_shared", refine_partitions_each),
    (deblock_mod, "_filter_edges", filter_edges_each),
    (chroma_mod, "encode_chroma_plane", encode_chroma_plane),
    (encoder_mod.Encoder, "_emit_intra4", emit_intra4_sequential),
)


@contextmanager
def oracle_codec():
    """Every oracle above installed wherever ``repro`` binds the body it
    replaces: on its class, in its defining module, and in each module
    that took it by ``from ... import`` — so a whole encode or decode runs
    the reference bodies. Everything is restored on exit."""
    modules = [m for name, m in sys.modules.items() if name.startswith("repro.")]
    with pytest.MonkeyPatch.context() as mp:
        for owner, name, oracle in _CODEC_ORACLES:
            original = vars(owner)[name]
            if isinstance(owner, type):
                mp.setattr(owner, name, oracle)
                continue
            for module in modules:
                if vars(module).get(name) is original:
                    mp.setattr(module, name, oracle)
        yield


def against_oracles(fn):
    """``fn()`` on the ``src`` codec, then with :func:`oracle_codec`
    installed; returns ``{"src": ..., "oracle": ...}``."""
    src = fn()
    with oracle_codec():
        return {"src": src, "oracle": fn()}


def assert_identical_values(results):
    assert results["src"] == results["oracle"], "src diverged from its oracle"


#: The two codec bodies by their old backend names, for laws each must
#: keep on its own: ``reference`` runs the oracles, ``vectorized`` src.
CODECS = {"reference": oracle_codec, "vectorized": nullcontext}


# -- fault plans ------------------------------------------------------------


def format_fault_plan(specs) -> str:
    """The canonical plan string of ``FaultSpec``s, clause fields in a fixed
    order: the writer the round-trip laws hold ``parse_fault_plan`` to
    (``parse_fault_plan(format_fault_plan(p)) == p``)."""
    clauses = []
    for spec in specs:
        parts = [spec.site]
        if spec.action == "raise":
            parts.append(f"raise={spec.exception}")
        elif spec.action == "stall":
            parts.append(f"stall={spec.stall_seconds!r}")
        else:
            parts.append("kill")
        if spec.at:
            parts.append("at=" + "|".join(str(i) for i in spec.at))
        if spec.every:
            parts.append(f"every={spec.every}")
        if spec.rate:
            parts.append(f"rate={spec.rate!r}")
        if spec.seed:
            parts.append(f"seed={spec.seed}")
        if spec.match:
            parts.append(f"match={spec.match}")
        if spec.max_triggers:
            parts.append(f"max={spec.max_triggers}")
        clauses.append(",".join(parts))
    return ";".join(clauses)
