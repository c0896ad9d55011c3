"""What a traced encode reports: the model under every simulated counter.

One :class:`EncodeTrace` per encode owns everything that exists only
because the encode is traced: the simulated heap (an
:class:`~repro.trace.recorder.AddressMap` and every base it hands out), the
address templates of each stage's data accesses, the outcome of each
data-dependent branch, and the three Graphite loop transforms
(:class:`LoopOptimizations`). The encoder calls one method per thing it
*did*; each method turns that into ``tracer.kernel(...)`` calls with the
addresses touched and the branches resolved, which is what makes the µarch
characterization respond to crf/refs/preset/video as the paper describes.

Two things here fix numbers downstream and are easy to break:

- The heap is a bump allocator, so the order in which regions are *first*
  named fixes every base and, through it, every cache-set index. The input
  pool, DPB slots, coefficient scratch and bitstream are laid out up front;
  ``interp_scratch``, ``recon_work`` and ``src_work`` on first use.
- :attr:`EncodeTrace.heap_bytes` is reported for every encode, recorded or
  not, so the up-front layout happens under a :class:`NullTracer` too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.codec.options import EncoderOptions
from repro.codec.quant import quantize
from repro.codec.types import MBMode
from repro.trace.recorder import AddressMap, Tracer

__all__ = ["EncodeTrace", "LoopOptimizations"]

#: The 16 coefficient blocks of a macroblock, 64 bytes each.
_COEFF_BLOCKS = (np.arange(16) * 64).astype(np.uint64)
_COEFF_MB_BYTES = 16 * 16 * 4
#: The 17 rows of the 32-byte-pitch subpel interpolation scratch.
_INTERP_SCRATCH_ROWS = (np.arange(17) * 32).astype(np.uint64)
_BITSTREAM_BYTES = 1 << 22
#: The lookahead's half-resolution planes: eight 1 MiB slots off the heap.
_LOOKAHEAD_BASE = 0x0800_0000


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
            # The whole no-op side: no report computes an address or an
            # outcome array nobody will read.
            for name, member in vars(EncodeTrace).items():
                if callable(member) and not name.startswith("_"):
                    setattr(self, name, _no_report)
            return

        #: DPB buffer of each stored anchor, by display index.
        self._dpb_of: dict[int, int] = {}
        # Address templates (offsets from a block's first byte): the
        # per-call part is one add.
        self._row_templates: dict[tuple[int, int], np.ndarray] = {}
        self._interp_columns = (
            np.arange(17)[None, :] * pad_w + np.arange(0, 17, 2)[:, None]
        ).ravel().astype(np.uint64)

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

    def _rows(self, base: int, y: int, x: int, rows: int, width: int) -> np.ndarray:
        """Byte addresses covering ``rows`` rows of ``width`` pixels."""
        template = self._row_templates.get((rows, width))
        if template is None:
            starts = np.arange(rows) * self._pad_w
            # Touch the first and last byte of each row span (line
            # granularity is resolved by the cache model).
            template = np.concatenate([starts, starts + width - 1]).astype(np.uint64)
            self._row_templates[rows, width] = template
        return template + np.uint64(base + y * self._pad_w + x)

    # -- per encode / per frame -------------------------------------------
    def lookahead(self, width: int, height: int) -> None:
        rows = height // 2
        for i in range(self._n_frames):
            base = _LOOKAHEAD_BASE + (i % 8) * (1 << 20)
            addrs = (base + np.arange(rows) * (width // 2)).astype(np.uint64)
            self._tracer.kernel("lookahead", iters=rows, reads=addrs)

    def frame_setup(self, disp_idx: int) -> None:
        rows = self._pad_h
        # Sample every 4th row (pure streaming copy).
        addrs = (
            self._src[disp_idx] + np.arange(0, rows, 4) * self._pad_w
        ).astype(np.uint64)
        self._tracer.kernel("frame_setup", iters=rows, reads=addrs, writes=addrs)

    def frame_modes(self, mbs) -> None:
        """Frame-level mode-decision branch history (sequence across MBs)."""
        self._tracer.kernel(
            "mode_decide",
            iters=0,
            branches={
                "skip": np.array([mb.mode is MBMode.SKIP for mb in mbs], dtype=bool),
                "intra": np.array([mb.mode.is_intra for mb in mbs], dtype=bool),
            },
        )

    def chroma_plane(self, plane: np.ndarray) -> None:
        n_blocks = (plane.shape[0] // 8 + 1) * (plane.shape[1] // 8 + 1)
        self._tracer.kernel("dct4", iters=n_blocks * 4)
        self._tracer.kernel("quant", iters=n_blocks * 4)
        self._tracer.kernel("mc_copy", iters=n_blocks * 8)

    def deblock(self, before: np.ndarray, after: np.ndarray, n_edges: int) -> None:
        row_addrs = (
            self._recon_work + np.arange(0, self._pad_h, 2) * self._pad_w
        ).astype(np.uint64)
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
            self._tracer.kernel(
                "deblock",
                iters=iters,
                reads=row_addrs,
                writes=row_addrs,
                branches={"filtered": taken},
            )

    def rc_update(self) -> None:
        self._tracer.kernel("rc_update", iters=1)

    def dpb_store(self, disp_idx: int) -> None:
        """Frame ``disp_idx`` became a reference: anchors rotate through
        the DPB buffers in the order they are stored."""
        self._dpb_of[disp_idx] = self._dpb[len(self._dpb_of) % len(self._dpb)]

    # -- per macroblock ---------------------------------------------------
    def macroblock(self, mb_y: int, mb_x: int) -> None:
        self._y, self._x = mb_y * 16, mb_x * 16
        mb_index = mb_y * self._n_mb_x + mb_x
        self._coeff = _COEFF_BLOCKS + np.uint64(
            self._coeff_base + mb_index * self._coeff_stride
        )

    def me(self, refs, result, n_points: int) -> None:
        """One motion search of ``n_points`` over each DPB entry of ``refs``."""
        y, x = self._y, self._x
        # Search-window footprint per reference: the bounding box of the
        # visited positions, touched at row granularity.
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

    def interp(self, ref) -> None:
        """Subpel interpolation of this macroblock from DPB entry ``ref``."""
        base = self._dpb_of[ref.display_index]
        if self._opts.interchange_interp:
            # Row-major traversal: consecutive addresses within a row.
            reads = self._rows(base, self._y, self._x, 17, 17)
        else:
            # Column-major traversal: one touch per row per column-pair
            # walk (the filter consumes two columns per vector iteration)
            # — strided, same bytes but poor spatial order.
            reads = self._interp_columns + np.uint64(
                base + self._y * self._pad_w + self._x
            )
        writes = _INTERP_SCRATCH_ROWS + np.uint64(self._interp_scratch)
        self._tracer.kernel("me_interp", iters=17, reads=reads, writes=writes)

    def partition_search(self, cand) -> None:
        self._tracer.kernel("me_sad", iters=cand.n_search_points * 8)
        self._tracer.kernel("mode_decide", iters=len(cand.mvs))

    def part_split(self, flags: list[bool]) -> None:
        """Did each sub-partition level tried beat the one above it?"""
        if flags:
            self._tracer.kernel(
                "mode_decide",
                iters=len(flags),
                branches={"part_split": np.array(flags, dtype=bool)},
            )

    def intra_probe(self, kernel: str, modes: int) -> None:
        """``intra_pred16`` / ``intra_pred4`` trying ``modes`` modes from
        the reconstructed row above and column left of the macroblock."""
        reads = self._rows(
            self._recon_work, max(self._y - 1, 0), max(self._x - 1, 0), 17, 17
        )
        self._tracer.kernel(kernel, iters=modes, reads=reads)

    def transform_path(
        self, levels: np.ndarray, qp_mb: int, coeffs: np.ndarray | None = None
    ) -> None:
        src_reads = self._rows(self._src_work, self._y, self._x, 16, 16)
        coeff = self._coeff
        self._tracer.kernel("dct4", iters=16, reads=src_reads, writes=coeff)
        self._tracer.kernel(
            "quant",
            iters=16,
            reads=coeff,
            writes=coeff,
            branches={"nz": (levels.reshape(16, -1) != 0).ravel()},
        )
        if self._trellis > 0:
            n_nz = int(np.count_nonzero(levels))
            visited = 16 * 16 if self._trellis == 2 else max(n_nz * 4, 16)
            # Real RD decisions: which plainly-quantized coefficients did
            # the trellis pass demote or zero out?
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

    def entropy_coeffs(self, levels: np.ndarray, bits: int) -> None:
        flat = levels.reshape(-1)
        sig = flat != 0
        n_tokens = int(sig.sum())
        # Value-dependent coding branches: level-magnitude escape paths at
        # each exp-Golomb prefix boundary. Their volatility tracks the
        # coefficient statistics — rich residuals (low crf) drive the
        # higher thresholds erratically, coarse quantization leaves few,
        # heavily-biased outcomes.
        if n_tokens:
            mags = np.abs(flat[sig])
            big = np.concatenate([mags > t for t in (1, 3, 7)])
        else:
            big = np.zeros(1, dtype=bool)
        # Every (bits // 64)-th byte of the bits // 8 this MB appended.
        bs_addrs = np.uint64(self._bitstream) + np.arange(
            0, max(bits // 8, 1), max(1, bits // 64), dtype=np.uint64
        ) % np.uint64(_BITSTREAM_BYTES)
        self._tracer.kernel(
            "entropy_coeff",
            iters=max(n_tokens, 1),
            reads=self._coeff,
            writes=bs_addrs,
            branches={"sig": sig, "big": big},
        )
        self.entropy_header()

    def entropy_header(self) -> None:
        self._tracer.kernel("entropy_header", iters=1)

    def recon_write(self) -> None:
        writes = self._rows(self._recon_work, self._y, self._x, 16, 16)
        self._tracer.kernel("mc_copy", iters=16, writes=writes)
