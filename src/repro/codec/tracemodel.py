"""What a traced encode reports: the model under every simulated counter.

One :class:`EncodeTrace` per encode owns everything that exists only
because the encode is traced: the simulated heap (an
:class:`~repro.trace.recorder.AddressMap` and every base it hands out), the
address runs of each stage's data accesses, the outcome of each
data-dependent branch, and the three Graphite loop transforms
(:class:`LoopOptimizations`). The encoder calls one method per thing it
*did*; what the method reports — kernel invocations with the addresses
touched and the branches resolved — is what makes the µarch
characterization respond to crf/refs/preset/video as the paper describes.

A report appends scalars and references only: a kernel id and its
iteration count, each address run as (first byte, count, stride), and the
arrays an outcome derives from (a macroblock's levels and coefficients, a
search's improvement flags). When a frame's macroblocks are coded
(:meth:`EncodeTrace.frame_modes`), and whenever the tracer flushes, one
batched pass per report kind turns what is held back into columns and
hands them to the tracer in one :meth:`~repro.trace.recorder.Tracer.append`.
Nothing is kept from one batch to the next. The arrays are referenced, not
copied: the encoder never writes to one after reporting it (levels and
coefficients are fresh per macroblock).

Two things here fix numbers downstream and are easy to break:

- The heap is a bump allocator, so the order in which regions are *first*
  named fixes every base and, through it, every cache-set index. The input
  pool, DPB slots, coefficient scratch and bitstream are laid out up front;
  ``interp_scratch``, ``recon_work`` and ``src_work`` on first use — by the
  report that names them, never by the batch (DPB bases, too, are read when
  the report is made).
- :attr:`EncodeTrace.heap_bytes` is reported for every encode, recorded or
  not, so the up-front layout happens under a :class:`NullTracer` too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.codec.options import EncoderOptions
from repro.codec.quant import qstep, quantize_steps
from repro.codec.types import MBMode
from repro.trace.events import CallBatch
from repro.trace.recorder import AddressMap, Tracer

__all__ = ["EncodeTrace", "LoopOptimizations"]

_COEFF_MB_BYTES = 16 * 16 * 4
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
#: Where a branch event's outcomes come from: the report itself, a
#: macroblock's nonzero levels, what trellis changed, the entropy escapes.
_GIVEN, _NONZERO, _ZEROED, _ESCAPES = range(4)
#: The level magnitudes past which the entropy coder takes an escape path
#: (its exp-Golomb prefix boundaries).
_ESCAPE_AT = (1, 3, 7)


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

    @property
    def any_enabled(self) -> bool:
        return self.tile_transform or self.fuse_deblock or self.interchange_interp


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


class _Held:
    """One frame's reports, held back as scalars and references."""

    def __init__(self) -> None:
        self.kernels: list[int] = []  # kernel id, per call
        self.iters: list[float] = []  # per call; 0 where the batch fills it in
        #: per call: the length of its read runs, then of its write runs
        #: (three entries a run)
        self.sides: list[int] = []
        self.runs: list[int] = []  # (first byte, count, stride) per address run
        #: (call, tag id, source, outcome count, levels slot) per branch
        #: event; the batch counts the outcomes of every event not _GIVEN
        self.branches: list[int] = []
        self.given: list[bool] = []  # the outcomes of the _GIVEN events, in order
        self.levels: list[np.ndarray] = []  # per slot: one macroblock's levels
        self.trellis: list[int] = []  # (call, event, slot) per trellis call
        #: (event, slot) per trellis call handed coefficients, with those
        #: coefficients and the quantizer step they were coded at
        self.requant: list[int] = []
        self.coeffs: list[np.ndarray] = []
        self.steps: list[float] = []
        self.escapes: list[int] = []  # (call, event, slot) per entropy call


class EncodeTrace:
    """The trace content of one encode of ``n_frames`` padded
    ``pad_h`` x ``pad_w`` luma planes.

    :meth:`macroblock` names the macroblock the per-macroblock reports
    (``me`` … ``recon_write``) are about; the rest are per frame or per
    encode. Under a tracer that records nothing every report is a no-op.
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
        #: Column-major interpolation reads: a run down every second column
        #: of a 17 x 17 patch, offsets from its first byte.
        self._columns = [v for col in range(0, 17, 2) for v in (col, 17, pad_w)]
        #: The levels the current macroblock's slot holds: the reports about
        #: one macroblock share it, the next macroblock starts another.
        self._slot_levels: np.ndarray | None = None
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

    # -- what a report holds back -----------------------------------------
    def _call(self, kernel: str, iters, reads: tuple = (), writes: tuple = ()) -> int:
        """Hold back one invocation of ``kernel`` reading, then writing, the
        address runs ``reads`` / ``writes`` (flat (first byte, count,
        stride) triples); returns its index in the batch."""
        held = self._held
        held.kernels.append(_KERNEL_IDS[kernel])
        held.iters.append(iters)
        held.sides += (len(reads), len(writes))
        held.runs += reads
        held.runs += writes
        return len(held.kernels) - 1

    def _branch(self, call: int, tag: str, source: int, size: int, slot: int = -1) -> int:
        """Hold back one branch event of ``call``; returns its index."""
        branches = self._held.branches
        branches += (call, _TAG_IDS[tag], source, size, slot)
        return len(branches) // 5 - 1

    def _outcomes(self, call: int, tag: str, outcomes: list) -> None:
        """A branch event whose outcomes the report already has."""
        self._held.given += outcomes
        self._branch(call, tag, _GIVEN, len(outcomes))

    def _slot(self, levels: np.ndarray) -> int:
        """The slot holding this macroblock's ``levels``."""
        held = self._held
        if levels is not self._slot_levels:
            self._slot_levels = levels
            held.levels.append(levels)
        return len(held.levels) - 1

    def _rows(self, start: int, rows: int, width: int) -> tuple[int, ...]:
        """The runs over ``rows`` rows of ``width`` pixels from byte
        ``start``: the first and the last byte of each row (line
        granularity is resolved by the cache model)."""
        pitch = self._pad_w
        return (start, rows, pitch, start + width - 1, rows, pitch)

    def _bitstream_runs(self, bits: int) -> tuple[int, ...]:
        """Every (bits // 64)-th byte of the bits // 8 a macroblock
        appended, at offsets that wrap at the bitstream buffer's end."""
        stop, stride = max(bits // 8, 1), max(1, bits // 64)
        count = len(range(0, stop, stride))
        runs, i = (), 0
        while i < count:
            offset = i * stride % _BITSTREAM_BYTES
            n = min(count - i, -(-(_BITSTREAM_BYTES - offset) // stride))
            runs += (self._bitstream + offset, n, stride)
            i += n
        return runs

    # -- the batch ----------------------------------------------------------
    def _drain(self) -> None:
        """Hand everything held back to the tracer in one append.

        One pass per report kind over the whole batch: every address from
        its run; ``levels != 0`` once for every slot (``quant:nz`` and
        ``entropy_coeff:sig`` are the same array); one dead-zone quantize
        of every trellis macroblock's coefficients at its own step, for
        what trellis changed; the entropy escapes; the iteration counts
        those imply. Each kind's outcomes are scattered into one column at
        its events' offsets."""
        held = self._held
        if not held.kernels:
            return
        self._held, self._slot_levels = _Held(), None
        iters = _array(held.iters, np.float64)
        branch = _array(held.branches, np.intp).reshape(-1, 5)
        source, slot_of = branch[:, 2], branch[:, 4]
        sizes = branch[:, 3].copy()
        # (events, outcomes per event, the outcomes, event after event)
        spans = []
        given = source == _GIVEN
        spans.append((given, sizes[given], _array(held.given, bool)))
        if held.levels:
            levels = np.concatenate(held.levels, axis=None).reshape(len(held.levels), -1)
            nonzero = levels != 0
            n_nz = np.count_nonzero(nonzero, axis=1)
        if held.trellis:
            call, event, slot = _array(held.trellis, np.intp).reshape(-1, 3).T
            n = n_nz[slot]
            iters[call] = 16 * 16 if self._trellis == 2 else np.maximum(4 * n, 16)
            sizes[event] = np.maximum(n, 1)  # all False unless re-quantized below
        if held.coeffs:
            # Real RD decisions: which plainly-quantized coefficients did
            # the trellis pass demote or zero out?
            event, slot = _array(held.requant, np.intp).reshape(-1, 2).T
            coeffs = np.concatenate(held.coeffs, axis=None, dtype=np.float64)
            plain = quantize_steps(
                coeffs.reshape(len(held.coeffs), -1), _array(held.steps, np.float64)[:, None]
            )
            kept = plain != 0
            n = np.count_nonzero(kept, axis=1)
            sizes[event] = np.maximum(n, 1)
            spans.append((event, n, (plain != levels[slot])[kept]))
        if held.escapes:
            # Value-dependent coding branches: level-magnitude escape paths
            # at each exp-Golomb prefix boundary. Their volatility tracks
            # the coefficient statistics — rich residuals (low crf) drive
            # the higher thresholds erratically, coarse quantization leaves
            # few, heavily-biased outcomes.
            call, escapes, slot = _array(held.escapes, np.intp).reshape(-1, 3).T
            n_tokens = n_nz[slot]
            iters[call] = np.maximum(n_tokens, 1)
            sizes[escapes] = np.maximum(3 * n_tokens, 1)  # one False without a token
            mags = np.abs(levels[slot][nonzero[slot]])
        offsets = np.cumsum(sizes) - sizes
        outcomes = np.zeros(int(sizes.sum()), dtype=bool)
        for events, lengths, values in spans:
            outcomes[_spans(offsets[events], lengths)] = values
        if held.levels:
            # ``quant:nz`` / ``entropy_coeff:sig``: each a whole row of ``nonzero``.
            rows = np.flatnonzero(source == _NONZERO)
            outcomes[offsets[rows, None] + np.arange(levels.shape[1])] = nonzero[slot_of[rows]]
        if held.escapes:
            # ``mags > 1``, then ``> 3``, then ``> 7``: three spans an event.
            at, step = _spans(offsets[escapes], n_tokens), np.repeat(n_tokens, n_tokens)
            for k, threshold in enumerate(_ESCAPE_AT):
                outcomes[at + k * step] = mags > threshold

        first, count, stride = _array(held.runs, np.int64).reshape(-1, 3).T
        # Addresses per read / write side: the counts of its runs, summed.
        runs_per_side = _array(held.sides, np.intp) // 3
        side_of_run = np.repeat(np.arange(runs_per_side.size), runs_per_side)
        read_write = np.bincount(
            side_of_run, weights=count, minlength=runs_per_side.size
        ).astype(np.intp).reshape(-1, 2)
        # Every address from its run: the strides, with a jump to each run's
        # first byte, summed.
        taken = count > 0
        first, count, stride = first[taken], count[taken], stride[taken]
        addrs = np.repeat(stride, count)
        starts = np.cumsum(count) - count
        addrs[starts] = first
        addrs[starts[1:]] -= first[:-1] + (count[:-1] - 1) * stride[:-1]
        np.cumsum(addrs, out=addrs)
        self._tracer.append(
            CallBatch(
                names=_KERNELS,
                kernels=_array(held.kernels, np.intp),
                iters=iters,
                read_sizes=read_write[:, 0],
                write_sizes=read_write[:, 1],
                addrs=addrs.view(np.uint64),
                tags=_TAGS,
                branch_calls=branch[:, 0],
                branch_tags=branch[:, 1],
                branch_sizes=sizes,
                outcomes=outcomes,
            )
        )

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
        """Frame-level mode-decision branch history (sequence across MBs).
        The frame's macroblocks are coded: what is held back goes to the
        tracer."""
        call = self._call("mode_decide", 0)
        self._outcomes(call, "skip", [mb.mode is MBMode.SKIP for mb in mbs])
        self._outcomes(call, "intra", [mb.mode.is_intra for mb in mbs])
        self._drain()

    def chroma_plane(self, plane: np.ndarray) -> None:
        n_blocks = (plane.shape[0] // 8 + 1) * (plane.shape[1] // 8 + 1)
        self._call("dct4", n_blocks * 4)
        self._call("quant", n_blocks * 4)
        self._call("mc_copy", n_blocks * 8)

    def deblock(self, before: np.ndarray, after: np.ndarray, n_edges: int) -> None:
        rows = (self._recon_work, len(range(0, self._pad_h, 2)), 2 * self._pad_w)
        # Which 4-aligned edge rows actually changed (filter-taken flags).
        filtered = (before[::4, ::4] != after[::4, ::4]).ravel().tolist()
        if self._opts.fuse_deblock:
            # Fused single pass: each row region touched once.
            passes = [(n_edges, filtered)]
        else:
            # Two separate full-plane passes (horizontal then vertical).
            half = len(filtered) // 2
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
    def macroblock(self, mb_y: int, mb_x: int) -> None:
        self._y, self._x = mb_y * 16, mb_x * 16
        mb_index = mb_y * self._n_mb_x + mb_x
        # The 16 coefficient blocks of the macroblock, 64 bytes each.
        self._coeff = (self._coeff_base + mb_index * self._coeff_stride, 16, 64)
        self._slot_levels = None

    def me(self, refs, result, n_points: int) -> None:
        """One motion search of ``n_points`` over each DPB entry of ``refs``."""
        # Search-window footprint per reference: the bounding box of the
        # visited positions, touched at row granularity.
        if result.positions:
            dxs, dys = zip(*result.positions)
            x_lo, x_hi = min(dxs), max(dxs) + 16
            y_lo, y_hi = min(dys), max(dys) + 16
        else:
            x_lo, x_hi, y_lo, y_hi = 0, 16, 0, 16
        offset = (self._y + y_lo) * self._pad_w + max(self._x + x_lo, 0)
        reads = ()
        for entry in refs:
            reads += self._rows(
                self._dpb_of[entry.display_index] + offset, y_hi - y_lo, x_hi - x_lo
            )
        call = self._call("me_sad", n_points * 16, reads)
        if result.improvements:
            self._outcomes(call, "improve", result.improvements)

    def interp(self, ref) -> None:
        """Subpel interpolation of this macroblock from DPB entry ``ref``."""
        origin = self._dpb_of[ref.display_index] + self._y * self._pad_w + self._x
        if self._opts.interchange_interp:
            # Row-major traversal: consecutive addresses within a row.
            reads = self._rows(origin, 17, 17)
        else:
            # Column-major traversal: one touch per row per column-pair
            # walk (the filter consumes two columns per vector iteration)
            # — strided, same bytes but poor spatial order.
            reads = [origin + v if i % 3 == 0 else v for i, v in enumerate(self._columns)]
        self._call("me_interp", 17, reads, (self._interp_scratch, 17, 32))

    def partition_search(self, cand) -> None:
        self._call("me_sad", cand.n_search_points * 8)
        self._call("mode_decide", len(cand.mvs))

    def part_split(self, flags: list[bool]) -> None:
        """Did each sub-partition level tried beat the one above it?"""
        if flags:
            call = self._call("mode_decide", len(flags))
            self._outcomes(call, "part_split", flags)

    def intra_probe(self, kernel: str, modes: int) -> None:
        """``intra_pred16`` / ``intra_pred4`` trying ``modes`` modes from
        the reconstructed row above and column left of the macroblock."""
        start = (
            self._recon_work + max(self._y - 1, 0) * self._pad_w + max(self._x - 1, 0)
        )
        self._call(kernel, modes, self._rows(start, 17, 17))

    def transform_path(
        self, levels: np.ndarray, qp_mb: int, coeffs: np.ndarray | None = None
    ) -> None:
        slot = self._slot(levels)
        coeff = self._coeff
        src = self._src_work + self._y * self._pad_w + self._x
        self._call("dct4", 16, self._rows(src, 16, 16), coeff)
        call = self._call("quant", 16, coeff, coeff)
        self._branch(call, "nz", _NONZERO, levels.size, slot)
        if self._trellis > 0:
            # Visited count and `zeroed` outcomes follow from the levels:
            # the batch works them out.
            held = self._held
            call = self._call("trellis", 0, coeff)
            event = self._branch(call, "zeroed", _ZEROED, 0, slot)
            held.trellis += (call, event, slot)
            if coeffs is not None:
                held.requant += (event, slot)
                held.coeffs.append(coeffs)
                held.steps.append(qstep(qp_mb))
        self._call("idct4", 16, coeff)

    def entropy_coeffs(self, levels: np.ndarray, bits: int) -> None:
        slot = self._slot(levels)
        call = self._call("entropy_coeff", 0, self._coeff, self._bitstream_runs(bits))
        self._branch(call, "sig", _NONZERO, levels.size, slot)
        event = self._branch(call, "big", _ESCAPES, 0, slot)
        self._held.escapes += (call, event, slot)
        self.entropy_header()

    def entropy_header(self) -> None:
        self._call("entropy_header", 1)

    def recon_write(self) -> None:
        start = self._recon_work + self._y * self._pad_w + self._x
        self._call("mc_copy", 16, (), self._rows(start, 16, 16))
