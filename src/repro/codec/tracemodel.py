"""What a traced encode reports: the model under every simulated counter.

One :class:`EncodeTrace` per encode owns everything that exists only
because the encode is traced: the simulated heap (an
:class:`~repro.trace.recorder.AddressMap` and every base it hands out), the
address runs of each stage's data accesses, the outcome of each
data-dependent branch, and the three Graphite loop transforms
(:class:`LoopOptimizations`). What the encoder tells it — kernel
invocations with the addresses touched and the branches resolved — is what
makes the µarch characterization respond to crf/refs/preset/video as the
paper describes.

The encoder tells it two kinds of thing:

- Per encode and per frame, one method per thing it *did*
  (``lookahead`` … ``dpb_store``). Each appends scalars and references: a
  kernel id and its iteration count, each address run as (first byte,
  count, stride), the branch outcomes it already has.
- Per macroblock, one :meth:`EncodeTrace.record` of the macroblock's
  decision record: what the encoder already holds once the macroblock is
  coded — the :class:`~repro.codec.types.CodedMacroblock` (its mode path,
  qp, levels and bits), its :class:`InterSearch` (each reference's walk,
  the partition candidates and their flags, the L1 walk), the intra modes
  tried and the transform coefficients. The record keeps numbers only —
  a walk is kept as the box of the blocks it visited, its point count and
  its "new best" flags — so no search object outlives its macroblock.

When the encode ends, or whenever the tracer flushes (a read of the
stream), :meth:`EncodeTrace._drain` derives every macroblock's calls from
the records in array passes over all of them at once: which of the
``_SLOTS`` — the calls a macroblock can make, in the order the encoder
makes them — each record's path took, their iteration counts, address
runs and branch outcomes (``quant:nz`` and ``entropy_coeff:sig`` are one
``levels != 0``; one dead-zone quantize of every trellis macroblock's
coefficients at its own step, for what trellis changed). It places them
between the per-frame calls in the order the encoder made them, and hands
the whole encode to the tracer in one
:meth:`~repro.trace.recorder.Tracer.append`. Nothing is kept from one
drain to the next. The arrays are referenced, not copied: the encoder never
writes to one after recording it (levels and coefficients are fresh per
macroblock).

Two things here fix numbers downstream and are easy to break:

- The heap is a bump allocator, so the order in which regions are *first*
  named fixes every base and, through it, every cache-set index. The input
  pool, DPB slots, coefficient scratch and bitstream are laid out up front;
  ``interp_scratch``, ``recon_work`` and ``src_work`` on first use, in the
  order the calls that use them were made: before a drain, or a per-frame
  report that uses one, names it, the records not yet drained name theirs
  (:meth:`EncodeTrace._name_regions`). A record names DPB entries by display
  index, and each display index keeps its DPB buffer once stored.
- :attr:`EncodeTrace.heap_bytes` is reported for every encode, recorded or
  not, so the up-front layout happens under a :class:`NullTracer` too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import attrgetter, is_
from typing import TYPE_CHECKING

import numpy as np

from repro.codec.options import EncoderOptions
from repro.codec.quant import qstep, quantize_steps
from repro.codec.types import MBMode
from repro.trace.events import CallBatch
from repro.trace.recorder import AddressMap, Tracer

if TYPE_CHECKING:
    from repro.codec.motion import MotionSearchResult
    from repro.codec.types import CodedMacroblock

__all__ = ["EncodeTrace", "InterSearch", "LoopOptimizations"]

_COEFF_MB_BYTES = 16 * 16 * 4
_MB_LEVELS = 16 * 16  # the levels of one macroblock's sixteen 4x4 blocks
_BITSTREAM_BYTES = 1 << 22
#: The lookahead's half-resolution planes: eight 1 MiB slots off the heap.
_LOOKAHEAD_BASE = 0x0800_0000

#: Every kernel and branch-site tag an encode reports: a held-back call
#: carries its kernel's index, a held-back branch event its tag's.
_KERNELS = (
    "lookahead", "frame_setup", "me_sad", "me_interp", "mode_decide",
    "intra_pred16", "intra_pred4", "dct4", "quant", "trellis", "idct4",
    "entropy_coeff", "entropy_header", "mc_copy", "deblock", "rc_update",
)
_KERNEL_IDS = {name: i for i, name in enumerate(_KERNELS)}
_TAGS = ("improve", "part_split", "skip", "intra", "filtered", "nz", "zeroed", "sig", "big")
_TAG_IDS = {tag: i for i, tag in enumerate(_TAGS)}
#: The level magnitudes past which the entropy coder takes an escape path
#: (its exp-Golomb prefix boundaries).
_ESCAPE_AT = (1, 3, 7)

#: The calls a macroblock can make, in the order the encoder makes them; a
#: record's path takes some of them.
_SLOTS = (
    ("me_sad", "improve"),  # the L0 search over every reference searched
    ("me_interp", None),  # interpolating a fractional L0 vector
    ("me_sad", None), ("mode_decide", None),  # the 8x8 partition search
    ("me_sad", None), ("mode_decide", None),  # the 4x4 partition search
    ("mode_decide", "part_split"),  # did each partition level beat the one above
    ("me_sad", "improve"),  # a B macroblock's L1 search
    ("intra_pred16", None), ("intra_pred4", None),  # the intra probes
    ("intra_pred4", None),  # coding an intra-4x4 macroblock
    ("dct4", None), ("quant", "nz"), ("trellis", "zeroed"), ("idct4", None),
    ("entropy_coeff", "sig"),  # and "big", the escapes
    ("entropy_header", None),
    ("mc_copy", None),  # writing the reconstruction
)
(
    _L0, _INTERP, _P8, _P8_MODES, _P4, _P4_MODES, _SPLIT, _L1, _PROBE16, _PROBE4,
    _INTRA4, _DCT, _QUANT, _TRELLIS, _IDCT, _ENTROPY, _HEADER, _RECON,
) = range(len(_SLOTS))
_SLOT_KERNELS = np.array([_KERNEL_IDS[kernel] for kernel, _ in _SLOTS])
_SLOT_EVENTS = np.array([tag is not None for _, tag in _SLOTS], dtype=np.intp)
_SLOT_EVENTS[_ENTROPY] = 2
#: Address runs read and written by each slot's call: the L0 search reads
#: two a reference searched, and the entropy coder writes one unless its
#: bitstream writes wrap (both filled in per record), interpolation reads
#: nine unless interchanged (two then).
_SLOT_READS = np.zeros(len(_SLOTS), dtype=np.intp)
_SLOT_READS[[_INTERP, _L1, _PROBE16, _PROBE4, _INTRA4, _DCT]] = (9, 2, 2, 2, 2, 2)
_SLOT_READS[[_QUANT, _TRELLIS, _IDCT, _ENTROPY]] = 1
_SLOT_WRITES = np.zeros(len(_SLOTS), dtype=np.intp)
_SLOT_WRITES[[_INTERP, _DCT, _QUANT, _RECON]] = (1, 1, 1, 2)
#: Column-major interpolation: a run down every second column of a 17 x 17
#: patch.
_INTERP_COLUMNS = np.arange(0, 17, 2)
_SKIP = MBMode.SKIP
_INTRA = {mode for mode in MBMode if mode.is_intra}
#: The record fields a drain reads, record after record.
_MB_Y, _MB_X, _MODE, _LEVELS, _BITS = map(attrgetter, ("mb_y", "mb_x", "mode", "coeffs", "bits"))


@dataclass(frozen=True)
class LoopOptimizations:
    """Polyhedral loop-transformation switches (produced by Graphite).

    - ``tile_transform``: reuse one macroblock-sized coefficient scratch
      buffer instead of streaming through a frame-sized one (loop tiling /
      fusion of the transform→quant→entropy producer-consumer nests).
    - ``fuse_deblock``: single fused pass over the plane instead of a
      horizontal pass followed by a vertical pass (loop fusion).
    - ``interchange_interp``: column-major → row-major traversal in the
      subpel interpolation (loop interchange).
    """

    tile_transform: bool = False
    fuse_deblock: bool = False
    interchange_interp: bool = False


@dataclass(kw_only=True, slots=True)
class InterSearch:
    """What one macroblock's inter search did, as the encoder hands it to
    :meth:`EncodeTrace.record`."""

    refs: tuple[int, ...]  # display index of each L0 reference searched, in order
    walks: list[MotionSearchResult]  # each one's full-pel walk, in the same order
    ref: int  # the winner's index in ``refs``
    subpel: bool  # the winning vector is fractional: interpolated from the winner
    #: (search points, partitions) of each sub-partition candidate searched,
    #: 8x8 first
    partitions: list[tuple[int, int]]
    split: list[bool]  # did each beat the level above it
    bi: tuple[int, MotionSearchResult] | None = None  # B: the L1 reference and its walk


def _no_report(*args, **kwargs) -> None:
    """Every report of an encode nobody records."""


def _array(values: list, dtype) -> np.ndarray:
    """A held-back list as a 1-D array."""
    return np.fromiter(values, dtype=dtype, count=len(values))


def _spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``starts[i] + j`` for every ``j < lengths[i]``, span after span."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(starts - ends + lengths, lengths)


def _rows(start, n_rows, width, pitch: int) -> np.ndarray:
    """The runs over ``n_rows`` rows of ``width`` pixels from each byte of
    ``start``: the first and the last byte of each row (line granularity is
    resolved by the cache model), one (2, 3) pair of runs a start."""
    start = np.asarray(start, dtype=np.int64)
    runs = np.empty((start.size, 2, 3), dtype=np.int64)
    runs[:, 0, 0] = start
    runs[:, 1, 0] = start + np.subtract(width, 1)
    runs[:, :, 1] = np.reshape(n_rows, (-1, 1))
    runs[:, :, 2] = pitch
    return runs


def _stack(arrays: list, width: int) -> np.ndarray:
    """Per-macroblock arrays of ``width`` values each (all of one shape), as
    rows."""
    if not arrays:
        return np.zeros((0, width))
    return np.concatenate(arrays).reshape(len(arrays), width)


def _flags(values, of) -> np.ndarray:
    """Is each of ``values`` the object ``of``?"""
    return np.fromiter(map(is_, values, repeat(of)), bool, len(values))


class _Held:
    """The per-encode and per-frame reports since the last drain, as
    scalars and references."""

    def __init__(self) -> None:
        self.kernels: list[int] = []  # kernel id, per call
        self.iters: list[float] = []  # per call
        self.at: list[int] = []  # per call: the records made before it
        self.sides: list[int] = []  # per call: its read runs, then its write runs
        self.runs: list[int] = []  # (first byte, count, stride) per address run
        self.branches: list[int] = []  # (call, tag id, outcome count) per branch event
        self.outcomes: list = []  # each branch event's outcomes, in order


class _Records:
    """The decision records since the last drain, as what the drain reads of
    them: per record its coded macroblock, intra modes tried, coefficients
    and a summary of its inter search; every search walk's numbers in flat
    columns. A record holds no search object, so no walk outlives its
    macroblock: the position tuples of an encode's walks, held to its end,
    made the garbage collector run an order of magnitude more often."""

    def __init__(self) -> None:
        self.mbs: list = []  # CodedMacroblock, per record
        self.tried: list = []  # intra modes tried, per record
        self.coeffs: list = []  # transform coefficients or None, per record
        #: per record: None, or (references searched, the winner's index, its
        #: vector is fractional, partition candidates, split flags, the L1
        #: reference or -1)
        self.searches: list = []
        self.partitions: list[int] = []  # (search points, partitions) a candidate
        self.split: list[bool] = []  # the partition flags
        #: every walk, search after search (its references', then its L1's):
        #: the box of the blocks at its visited positions (x, y of the lower
        #: corner, then past the upper one), its candidate points and how
        #: many "new best" flags it has
        self.boxes: list[int] = []
        self.points: list[int] = []
        self.flags: list[int] = []
        self.improve: list[bool] = []  # the "new best" flags, walk after walk


class _Columns:
    """One drain's decision records as columns: which of the ``_SLOTS`` each
    record's path took (``taken``), each slot's iterations and read and
    write runs, and the record fields the runs and outcomes derive from."""

    def __init__(self, records: _Records, trellis: int, interchange: bool) -> None:
        mbs, tried, coeffs = records.mbs, records.tried, records.coeffs
        n = len(mbs)
        self.taken = taken = np.zeros((n, len(_SLOTS)), dtype=bool)
        self.iters = iters = np.zeros(taken.shape)
        self.reads = reads = np.tile(_SLOT_READS, (n, 1))
        self.writes = writes = np.tile(_SLOT_WRITES, (n, 1))
        self.y = 16 * np.fromiter(map(_MB_Y, mbs), np.int64, n)
        self.x = 16 * np.fromiter(map(_MB_X, mbs), np.int64, n)
        modes = list(map(_MODE, mbs))
        taken[:, [_HEADER, _RECON]] = True
        iters[:, [_HEADER, _RECON]] = (1, 16)
        # The intra probes (16x16, then 4x4), and coding an intra-4x4 macroblock.
        n_tried = np.fromiter(map(len, tried), np.intp, n)
        taken[:, _PROBE16], taken[:, _PROBE4] = n_tried > 0, n_tried > 1
        iters[:, _PROBE16:_INTRA4][taken[:, _PROBE16:_INTRA4]] = list(chain.from_iterable(tried))
        taken[:, _INTRA4] = _flags(modes, MBMode.INTRA_4X4)
        iters[:, _INTRA4] = 16 * 3

        # The transform path of every macroblock but a skipped one.
        self.coded = rows = np.flatnonzero(~_flags(modes, MBMode.SKIP))
        for slot in (_DCT, _QUANT, _IDCT, _ENTROPY, *((_TRELLIS,) if trellis else ())):
            taken[rows, slot] = True
        iters[:, [_DCT, _QUANT, _IDCT]] = 16
        coded = [mbs[i] for i in rows]
        self.levels = levels = _stack(list(map(_LEVELS, coded)), _MB_LEVELS)
        self.nonzero = levels != 0
        self.n_nz = n_nz = np.count_nonzero(self.nonzero, axis=1)
        iters[rows, _TRELLIS] = 16 * 16 if trellis == 2 else np.maximum(4 * n_nz, 16)
        iters[rows, _ENTROPY] = np.maximum(n_nz, 1)
        # Every (bits // 64)-th byte of the bits // 8 a macroblock appended,
        # at offsets that wrap at the bitstream buffer's end: one run, or one
        # a byte once they wrap.
        bits = np.fromiter(map(_BITS, coded), np.int64, rows.size)
        self.stride = stride = np.maximum(bits // 64, 1)
        self.count = count = -(-np.maximum(bits // 8, 1) // stride)
        self.wraps = (count - 1) * stride >= _BITSTREAM_BYTES
        writes[rows, _ENTROPY] = np.where(self.wraps, count, 1)
        # What trellis was handed: each coefficient array, and its step.
        self.requant = np.flatnonzero([coeffs[i] is not None for i in rows] if trellis else [])
        self.coeffs = _stack([coeffs[rows[i]] for i in self.requant], _MB_LEVELS)
        steps = {qp: qstep(qp) for qp in {coded[i].qp for i in self.requant}}
        self.steps = np.array([steps[coded[i].qp] for i in self.requant])

        # The inter searches: L0 over every reference, its partitions and
        # their flags, a B macroblock's L1.
        searches = records.searches
        self.inter = inter = np.flatnonzero([s is not None for s in searches])
        found = [searches[i] for i in inter]
        refs, winner, subpel, n_parts, n_split, l1_ref = (
            zip(*found) if found else ((),) * 6
        )
        self.refs = list(chain.from_iterable(refs))
        self.n_refs = n_refs = np.fromiter(map(len, refs), np.intp, inter.size)
        l1_ref = np.array(l1_ref, dtype=np.intp)
        # Each search's walks are its references', then an L1 one; the trace
        # reads the winner's and the L1 one.
        first = np.cumsum(n_refs + (l1_ref >= 0)) - n_refs - (l1_ref >= 0)
        self.winners = first + np.array(winner, dtype=np.intp)
        self.l1 = first[l1_ref >= 0] + n_refs[l1_ref >= 0]
        self.l1_ref = l1_ref[l1_ref >= 0]
        points, flags = (np.array(column, dtype=np.intp) for column in (records.points, records.flags))
        boxes = np.array(records.boxes, dtype=np.int64).reshape(-1, 4)
        self.lo, self.hi = boxes[:, :2], boxes[:, 2:]
        improve = np.frombuffer(bytes(records.improve), dtype=bool)
        flag_at = np.cumsum(flags) - flags
        self.n_improve = flags[self.winners], flags[self.l1]
        self.improve = [
            improve[_spans(flag_at[walks], flags[walks])] for walks in (self.winners, self.l1)
        ]
        taken[inter, _L0] = True
        # Each L0 search iterates 16 rows a full-pel point over its references.
        total = np.concatenate(([0], np.cumsum(points)))
        iters[inter, _L0] = 16 * (total[first + n_refs] - total[first])
        reads[inter, _L0] = 2 * n_refs
        taken[inter, _INTERP] = subpel
        self.subpel_ref = [r[w] for r, w, fractional in zip(refs, winner, subpel) if fractional]
        iters[:, _INTERP] = 17
        if interchange:
            reads[:, _INTERP] = 2
        n_parts = np.array(n_parts, dtype=np.intp)
        for slot in (_P8, _P8_MODES):
            taken[inter, slot] = n_parts > 0
        for slot in (_P4, _P4_MODES):
            taken[inter, slot] = n_parts > 1
        # 8 rows a partition search point, then one decision a partition.
        partitions = np.array(records.partitions, dtype=np.int64).reshape(-1, 2)
        iters[:, _P8:_SPLIT][taken[:, _P8:_SPLIT]] = (partitions * (8, 1)).ravel()
        self.n_split = n_split = np.array(n_split, dtype=np.intp)
        self.split = np.frombuffer(bytes(records.split), dtype=bool)
        taken[inter, _SPLIT] = n_split > 0
        iters[inter, _SPLIT] = n_split
        taken[inter, _L1] = l1_ref >= 0
        iters[taken[:, _L1], _L1] = 16 * points[self.l1]


class _CallOrder:
    """Where each call of a drain lands: the held calls and the records'
    calls, each in the order it was made, merged — a record's calls go
    after the held calls made before it was recorded."""

    def __init__(self, held: _Held, taken: np.ndarray) -> None:
        call_mb, self.slots = np.nonzero(taken)  # the records' calls, record order
        at = _array(held.at, np.intp)
        self.held = np.arange(at.size) + np.searchsorted(call_mb, at)
        calls = np.arange(call_mb.size) + np.searchsorted(at, call_mb, side="right")
        self.of = np.zeros(taken.shape, dtype=np.intp)  # per record and slot
        self.of[taken] = self.records = calls
        self.size = at.size + call_mb.size

    def merged(self, held_values, record_values, dtype) -> np.ndarray:
        """One column over every call from the held calls' values and the
        records' (call after call, in record order)."""
        column = np.empty((self.size, *np.shape(record_values)[1:]), dtype=dtype)
        column[self.held] = held_values
        column[self.records] = record_values
        return column


class EncodeTrace:
    """The trace content of one encode of ``n_frames`` padded
    ``pad_h`` x ``pad_w`` luma planes.

    :meth:`record` holds each coded macroblock's decision record; the rest
    are per frame or per encode. Under a tracer that records nothing every
    report is a no-op.
    """

    def __init__(
        self,
        tracer: Tracer,
        loop_opts: LoopOptimizations,
        options: EncoderOptions,
        *,
        pad_h: int,
        pad_w: int,
        n_frames: int,
    ) -> None:
        self._tracer = tracer
        self._opts = loop_opts
        self._trellis = options.trellis
        self._pad_h, self._pad_w, self._n_frames = pad_h, pad_w, n_frames
        self._plane_bytes = plane_bytes = pad_h * pad_w
        self._n_mb_x = pad_w // 16

        # Input frame pool, DPB slots, coefficient scratch, bitstream.
        # Each decoded input frame is a fresh buffer: reading it is
        # compulsory-miss traffic, as in a real decode->encode pipeline.
        self._heap = heap = AddressMap()
        self._src = [heap.alloc(f"src{i}", plane_bytes) for i in range(n_frames)]
        self._dpb = [heap.alloc(f"dpb{i}", plane_bytes) for i in range(options.refs + 2)]
        if self._opts.tile_transform:
            self._coeff_base = heap.alloc("coeff_mb", _COEFF_MB_BYTES)
            self._coeff_stride = 0  # every MB reuses the same scratch
        else:
            n_mbs = (pad_h // 16) * self._n_mb_x
            self._coeff_base = heap.alloc("coeff_frame", n_mbs * _COEFF_MB_BYTES)
            self._coeff_stride = _COEFF_MB_BYTES
        self._bitstream = heap.alloc("bitstream", _BITSTREAM_BYTES)

        if not tracer.enabled:
            # The whole no-op side: no report holds back anything nobody
            # will read.
            for name, member in vars(EncodeTrace).items():
                if callable(member) and not name.startswith("_"):
                    setattr(self, name, _no_report)
            return

        #: DPB buffer of each stored anchor, by display index.
        self._dpb_of: dict[int, int] = {}
        self._held = _Held()
        #: The decision records, and how many of them have named their regions.
        self._records = _Records()
        self._scanned = 0
        tracer.defer(self._drain)

    @property
    def heap_bytes(self) -> int:
        """Size of the simulated heap: the live working set of this encode."""
        return self._heap.bytes_allocated

    # -- lazily named regions: first use fixes the base ------------------
    @cached_property
    def _interp_scratch(self) -> int:
        return self._heap.alloc("interp_scratch", 32 * 32)

    @cached_property
    def _recon_work(self) -> int:
        return self._heap.alloc("recon_work", self._plane_bytes)

    @cached_property
    def _src_work(self) -> int:
        return self._heap.alloc("src_work", self._plane_bytes)

    def _name_regions(self) -> None:
        """Name the lazily named regions the records not scanned yet use, in
        the order their calls first use them: ``interp_scratch`` to
        interpolate, ``recon_work`` to probe intra modes or write the
        reconstruction, ``src_work`` to transform the residual."""
        named, records, start = vars(self), self._records, self._scanned
        for mb, search, modes_tried in zip(
            records.mbs[start:], records.searches[start:], records.tried[start:]
        ):
            if "_interp_scratch" in named and "_src_work" in named:
                break  # and recon_work, which src_work's macroblock wrote
            if search is not None and search[2]:
                self._interp_scratch  # noqa: B018 - first use names it
            if modes_tried or mb.mode is MBMode.INTRA_4X4:
                self._recon_work  # noqa: B018
            if mb.mode is not MBMode.SKIP:
                self._src_work  # noqa: B018
            self._recon_work  # noqa: B018
        self._scanned = len(records.mbs)

    # -- what a per-frame report holds back --------------------------------
    def _call(self, kernel: str, iters, reads: tuple = (), writes: tuple = ()) -> int:
        """Hold back one invocation of ``kernel`` reading, then writing, the
        address runs ``reads`` / ``writes`` (flat (first byte, count,
        stride) triples); returns its index among the held calls."""
        held = self._held
        held.kernels.append(_KERNEL_IDS[kernel])
        held.iters.append(iters)
        held.at.append(len(self._records.mbs))
        held.sides += (len(reads) // 3, len(writes) // 3)
        held.runs += reads
        held.runs += writes
        return len(held.kernels) - 1

    def _outcomes(self, call: int, tag: str, outcomes: list) -> None:
        """A branch event of ``call`` whose outcomes the report already has."""
        held = self._held
        held.branches += (call, _TAG_IDS[tag], len(outcomes))
        held.outcomes.append(outcomes)

    # -- the drain ----------------------------------------------------------
    def _drain(self) -> None:
        """Hand every call since the last drain to the tracer in one append:
        the macroblocks' calls derived from their records, between the
        per-frame calls held back around them."""
        self._name_regions()
        held, records = self._held, self._records
        if not held.kernels and not records.mbs:
            return
        self._held, self._records, self._scanned = _Held(), _Records(), 0
        mbs = _Columns(records, self._trellis, self._opts.interchange_interp)
        order = _CallOrder(held, mbs.taken)
        kernels = order.merged(held.kernels, _SLOT_KERNELS[order.slots], np.intp)
        iters = order.merged(held.iters, mbs.iters[mbs.taken], np.float64)
        tags, sizes, events_per_call, outcomes = self._branches(held, mbs, order)
        addrs, read_write = self._addresses(held, mbs, order)
        self._tracer.append(
            CallBatch(
                names=_KERNELS,
                kernels=kernels,
                iters=iters,
                read_sizes=read_write[:, 0],
                write_sizes=read_write[:, 1],
                addrs=addrs,
                tags=_TAGS,
                branch_calls=np.repeat(np.arange(kernels.size), events_per_call),
                branch_tags=tags,
                branch_sizes=sizes,
                outcomes=outcomes,
            )
        )

    def _addresses(self, held: _Held, mbs: _Columns, order: _CallOrder) -> tuple:
        """Every call's addresses, call after call, and how many each reads
        and writes."""
        taken, of, pitch, dpb_of = mbs.taken, order.of, self._pad_w, self._dpb_of
        sides = order.merged(
            _array(held.sides, np.intp).reshape(-1, 2),
            np.column_stack((mbs.reads[taken], mbs.writes[taken])), np.intp,
        )
        runs_per_call = sides.sum(axis=1)
        run_at = np.cumsum(runs_per_call) - runs_per_call
        runs = np.empty((int(runs_per_call.sum()), 3), dtype=np.int64)
        runs[_spans(run_at[order.held], runs_per_call[order.held])] = _array(
            held.runs, np.int64
        ).reshape(-1, 3)

        def put(slot: int, values: np.ndarray, rows=None) -> None:
            """Runs (calls x runs x 3, in record order) of the calls of
            ``slot`` (of records ``rows``)."""
            calls = of[taken[:, slot] if rows is None else rows, slot]
            runs[run_at[calls][:, None] + np.arange(values.shape[1])] = values

        y, x = mbs.y, mbs.x
        if y.size:
            put(_RECON, _rows(self._recon_work + y * pitch + x, 16, 16, pitch))
            probe = _rows(
                self._recon_work + np.maximum(y - 1, 0) * pitch + np.maximum(x - 1, 0),
                17, 17, pitch,
            )
            for slot in (_PROBE16, _PROBE4, _INTRA4):
                put(slot, probe[taken[:, slot]])
        rows = mbs.coded
        if rows.size:
            # One macroblock, one set of coefficient addresses for every kernel.
            mb_index = y[rows] // 16 * self._n_mb_x + x[rows] // 16
            coeff = np.empty((rows.size, 1, 3), dtype=np.int64)
            coeff[:, 0, 0] = self._coeff_base + mb_index * self._coeff_stride
            coeff[:, 0, 1:] = (16, 64)  # 16 blocks, 64 bytes each
            src = _rows(self._src_work + y[rows] * pitch + x[rows], 16, 16, pitch)
            put(_DCT, np.concatenate((src, coeff), axis=1), rows)
            put(_QUANT, np.concatenate((coeff, coeff), axis=1), rows)
            for slot in (_TRELLIS, _IDCT, _ENTROPY) if self._trellis else (_IDCT, _ENTROPY):
                put(slot, coeff, rows)
            n_bitstream = mbs.writes[rows, _ENTROPY]
            byte = _spans(np.zeros(rows.size, dtype=np.int64), n_bitstream)
            stride = np.repeat(mbs.stride, n_bitstream)
            runs[_spans(run_at[of[rows, _ENTROPY]] + 1, n_bitstream)] = np.stack(
                (
                    self._bitstream + byte * stride % _BITSTREAM_BYTES,
                    np.repeat(np.where(mbs.wraps, 1, mbs.count), n_bitstream),
                    stride,
                ),
                axis=1,
            )
        inter = mbs.inter
        if inter.size:
            # Search-window footprint per reference: the bounding box of the
            # winner's visited positions, touched at row granularity — the
            # L0 searches over their references, then the L1 searches.
            l1 = np.flatnonzero(taken[:, _L1])
            walks = np.concatenate((mbs.winners, mbs.l1))
            n_refs = np.concatenate((mbs.n_refs, np.ones(l1.size, dtype=np.intp)))
            lo, size = mbs.lo[walks], mbs.hi[walks] - mbs.lo[walks]
            refs = chain(mbs.refs, mbs.l1_ref.tolist())
            bases = np.fromiter(map(dpb_of.__getitem__, refs), np.int64, int(n_refs.sum()))
            mb_y, mb_x = y[np.concatenate((inter, l1))], x[np.concatenate((inter, l1))]
            offset = (mb_y + lo[:, 1]) * pitch + np.maximum(mb_x + lo[:, 0], 0)
            size = np.repeat(size, n_refs, axis=0)
            window = _rows(bases + np.repeat(offset, n_refs), size[:, 1], size[:, 0], pitch)
            calls = np.concatenate((of[inter, _L0], of[l1, _L1]))
            runs[_spans(run_at[calls], 2 * n_refs)] = window.reshape(-1, 3)
        subpel = np.flatnonzero(taken[:, _INTERP])
        if subpel.size:
            origin = (y * pitch + x)[subpel] + [dpb_of[ref] for ref in mbs.subpel_ref]
            if self._opts.interchange_interp:
                # Row-major traversal: consecutive addresses within a row.
                patch = _rows(origin, 17, 17, pitch)
            else:
                # Column-major traversal: one touch per row per column-pair
                # walk (the filter consumes two columns per vector iteration)
                # — strided, same bytes but poor spatial order.
                patch = np.empty((subpel.size, _INTERP_COLUMNS.size, 3), dtype=np.int64)
                patch[:, :, 0] = origin[:, None] + _INTERP_COLUMNS
                patch[:, :, 1:] = (17, pitch)
            scratch = np.empty((subpel.size, 1, 3), dtype=np.int64)
            scratch[:, 0] = (self._interp_scratch, 17, 32)
            put(_INTERP, np.concatenate((patch, scratch), axis=1))

        # Addresses per read / write side: the counts of its runs, summed.
        first, count, stride = runs.T
        side_of_run = np.repeat(np.arange(sides.size), sides.ravel())
        read_write = np.bincount(
            side_of_run, weights=count, minlength=sides.size
        ).astype(np.intp).reshape(-1, 2)
        # Every address from its run: the strides, with a jump to each run's
        # first byte, summed.
        nonempty = count > 0
        first, count, stride = first[nonempty], count[nonempty], stride[nonempty]
        addrs = np.repeat(stride, count)
        starts = np.cumsum(count) - count
        addrs[starts] = first
        addrs[starts[1:]] -= first[:-1] + (count[:-1] - 1) * stride[:-1]
        np.cumsum(addrs, out=addrs)
        return addrs.view(np.uint64), read_write

    def _branches(self, held: _Held, mbs: _Columns, order: _CallOrder) -> tuple:
        """Every branch event, call after call: its tag, its outcome count and
        (in one column) its outcomes; and the events of each call."""
        taken, of = mbs.taken, order.of
        branches = _array(held.branches, np.intp).reshape(-1, 3)
        held_calls = branches[:, 0]
        events_per_call = order.merged(
            np.bincount(held_calls, minlength=order.held.size), _SLOT_EVENTS[order.slots],
            np.intp,
        )
        event_at = np.cumsum(events_per_call) - events_per_call
        tags = np.empty(int(events_per_call.sum()), dtype=np.intp)
        sizes = np.empty_like(tags)
        held_events = event_at[order.held[held_calls]] + (
            np.arange(held_calls.size) - np.searchsorted(held_calls, held_calls)
        )
        tags[held_events], sizes[held_events] = branches[:, 1], branches[:, 2]

        def events(slot: int, tag: str, size, nth: int = 0) -> np.ndarray:
            at = event_at[of[taken[:, slot], slot]] + nth
            tags[at], sizes[at] = _TAG_IDS[tag], size
            return at

        # The outcomes the reports and records already have: the per-frame
        # ones, the winners' "new best" flags, the partition flags, the L1
        # walks' flags.
        (l0_improve, l1_improve), (n_l0, n_l1) = mbs.improve, mbs.n_improve
        given = np.concatenate((
            held_events,
            events(_L0, "improve", n_l0),
            events(_SPLIT, "part_split", mbs.n_split[mbs.n_split > 0]),
            events(_L1, "improve", n_l1),
        ))
        given_outcomes = np.concatenate(
            (*held.outcomes, l0_improve, mbs.split, l1_improve), dtype=bool, casting="unsafe"
        )
        nz = events(_QUANT, "nz", _MB_LEVELS)
        sig = events(_ENTROPY, "sig", _MB_LEVELS)
        n_nz = mbs.n_nz
        # Value-dependent coding branches: level-magnitude escape paths at
        # each exp-Golomb prefix boundary. Their volatility tracks the
        # coefficient statistics — rich residuals (low crf) drive the higher
        # thresholds erratically, coarse quantization leaves few,
        # heavily-biased outcomes.
        big = events(_ENTROPY, "big", np.maximum(3 * n_nz, 1), nth=1)
        if self._trellis:
            # All False unless re-quantized below.
            zeroed = events(_TRELLIS, "zeroed", np.maximum(n_nz, 1))[mbs.requant]
            # Real RD decisions: which plainly-quantized coefficients did the
            # trellis pass demote or zero out?
            plain = quantize_steps(mbs.coeffs, mbs.steps[:, None])
            kept = plain != 0
            n_kept = np.count_nonzero(kept, axis=1)
            sizes[zeroed] = np.maximum(n_kept, 1)

        offsets = np.cumsum(sizes) - sizes
        outcomes = np.zeros(int(sizes.sum()), dtype=bool)
        outcomes[_spans(offsets[given], sizes[given])] = given_outcomes
        for at in (nz, sig):  # each a whole row of ``nonzero``
            outcomes[offsets[at, None] + np.arange(_MB_LEVELS)] = mbs.nonzero
        if self._trellis:
            outcomes[_spans(offsets[zeroed], n_kept)] = (plain != mbs.levels[mbs.requant])[kept]
        # ``mags > 1``, then ``> 3``, then ``> 7``: three spans an event.
        mags = np.abs(mbs.levels[mbs.nonzero])
        at, step = _spans(offsets[big], n_nz), np.repeat(n_nz, n_nz)
        for threshold in _ESCAPE_AT:
            outcomes[at] = mags > threshold
            at += step
        return tags, sizes, events_per_call, outcomes

    # -- per encode / per frame -------------------------------------------
    def lookahead(self, width: int, height: int) -> None:
        rows = height // 2
        for i in range(self._n_frames):
            base = _LOOKAHEAD_BASE + (i % 8) * (1 << 20)
            self._call("lookahead", rows, (base, rows, width // 2))

    def frame_setup(self, disp_idx: int) -> None:
        rows = self._pad_h
        # Sample every 4th row (pure streaming copy).
        run = (self._src[disp_idx], len(range(0, rows, 4)), 4 * self._pad_w)
        self._call("frame_setup", rows, run, run)

    def frame_modes(self, mbs) -> None:
        """Frame-level mode-decision branch history (sequence across MBs)."""
        modes = list(map(_MODE, mbs))
        call = self._call("mode_decide", 0)
        self._outcomes(call, "skip", [mode is _SKIP for mode in modes])
        self._outcomes(call, "intra", [mode in _INTRA for mode in modes])

    def deblock(self, before: np.ndarray, after: np.ndarray, n_edges: int) -> None:
        self._name_regions()
        rows = (self._recon_work, len(range(0, self._pad_h, 2)), 2 * self._pad_w)
        # Which 4-aligned edge rows actually changed (filter-taken flags).
        filtered = (before[::4, ::4] != after[::4, ::4]).ravel()
        if self._opts.fuse_deblock:
            # Fused single pass: each row region touched once.
            passes = [(n_edges, filtered)]
        else:
            # Two separate full-plane passes (horizontal then vertical).
            half = filtered.size // 2
            passes = [
                (n_edges // 2, filtered[:half]),
                (n_edges - n_edges // 2, filtered[half:]),
            ]
        for iters, taken in passes:
            call = self._call("deblock", iters, rows, rows)
            self._outcomes(call, "filtered", taken)

    def rc_update(self) -> None:
        self._call("rc_update", 1)

    def dpb_store(self, disp_idx: int) -> None:
        """Frame ``disp_idx`` became a reference: anchors rotate through
        the DPB buffers in the order they are stored."""
        self._dpb_of[disp_idx] = self._dpb[len(self._dpb_of) % len(self._dpb)]

    # -- per macroblock ---------------------------------------------------
    def record(
        self,
        mb: CodedMacroblock,
        *,
        search: InterSearch | None,
        modes_tried: tuple[int, ...],
        coeffs: np.ndarray | None,
    ) -> None:
        """Macroblock ``mb`` is coded; hold its decision record: its inter
        ``search`` (None if it had none), the modes its intra probes tried
        (16x16, then 4x4; empty if it probed none) and the transform
        ``coeffs`` its levels were quantized from (None if it has none).
        Of the search, every walk (the references', then the L1 one) is
        kept as numbers (see :class:`_Records`)."""
        records = self._records
        records.mbs.append(mb)
        records.tried.append(modes_tried)
        records.coeffs.append(coeffs)
        if search is None:
            records.searches.append(None)
            return
        bi = search.bi
        records.searches.append((
            search.refs, search.ref, search.subpel, len(search.partitions),
            len(search.split), -1 if bi is None else bi[0],
        ))
        records.partitions.extend(chain.from_iterable(search.partitions))
        records.split += search.split
        boxes, points, flags, improve = (
            records.boxes, records.points, records.flags, records.improve
        )
        for walk in search.walks if bi is None else (*search.walks, bi[1]):
            if walk.positions:
                xs, ys = zip(*walk.positions)
                boxes += (min(xs), min(ys), max(xs) + 16, max(ys) + 16)
            else:  # a walk that visited nothing stays on its block
                boxes += (0, 0, 16, 16)
            points.append(walk.n_points)
            flags.append(len(walk.improvements))
            improve += walk.improvements
