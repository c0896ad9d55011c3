"""The encoder: orchestrates the full per-frame / per-macroblock pipeline.

Pipeline per frame (decode order): rate control assigns a base QP; each
16x16 macroblock runs motion estimation over every active reference frame
(P/B), optional bi-prediction (B), sub-partition search, intra candidates,
SKIP detection, then transform → (trellis) quantization → entropy coding
→ reconstruction; finally the in-loop deblocking filter runs and the
frame enters the reference picture buffer if it is an anchor.

Each frame-level stage tells the encode's
:class:`~repro.codec.tracemodel.EncodeTrace` what it did, and each coded
macroblock hands it one decision record of what the macroblock loop already
holds (the coded macroblock, its :class:`~repro.codec.tracemodel.InterSearch`,
the intra modes tried, the transform coefficients). What that means to a
tracer — the data addresses touched, the outcomes of the data-dependent
branches, the simulated heap they live in — is
:mod:`repro.codec.tracemodel`'s alone, and costs nothing when the encode is
not traced.

The hot kernels the encoder calls (transform, motion, intra, deblock,
entropy, chroma) are batched NumPy bodies; the encoder itself hoists the
per-macroblock float casts into one cast per frame. The scalar bodies
they replaced live on as oracles in ``tests/oracles.py``, and the
bitstreams, reconstructions and traces are bit-identical to theirs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.codec.chroma import encode_chroma_plane
from repro.codec.deblock import deblock_plane
from repro.codec.entropy import (
    BitWriter,
    encode_blocks,
    encode_tagged_blocks,
    ue_bits,
    write_se,
    write_ue,
)
from repro.codec.gop import GopPlan, plan_gop
from repro.codec.intra import (
    best_intra_16x16,
    code_intra4_wavefront,
    predict_4x4_blocks,
)
from repro.codec.mbdecision import InterCandidate, choose_inter_ref, mv_bits, search_partitions
from repro.codec.motion import PaddedReference, fetch_prediction, predict_mv
from repro.codec.options import EncoderOptions
from repro.codec.quant import dequantize, rd_lambda, trellis_quantize
from repro.codec.ratecontrol import FirstPassStats, RateController
from repro.codec.tracemodel import EncodeTrace, InterSearch, LoopOptimizations
from repro.codec.transform import blockify_16x16, forward_4x4, inverse_4x4, unblockify_16x16
from repro.codec.types import (
    FRAME_TYPE_IDS,
    MODE_IDS,
    CodedFrame,
    CodedMacroblock,
    CodedStream,
    FrameStats,
    FrameType,
    IntraMode,
    MBMode,
    MotionVector,
)
from repro.obs import session as obs
from repro.resilience.faults import fault_point
from repro.trace.recorder import NullTracer, Tracer
from repro.video.frame import FrameSequence
from repro.video.metrics import bitrate_kbps, psnr_sequence

__all__ = ["Encoder", "EncodeResult", "LoopOptimizations", "encode"]

@dataclass
class EncodeResult:
    """Everything produced by one encoding run."""

    stream: CodedStream
    psnr_db: float
    bitrate_kbps: float
    encode_seconds: float
    frame_stats: list[FrameStats]
    gop: GopPlan
    options: EncoderOptions
    first_pass: FirstPassStats | None = None

    @property
    def total_bits(self) -> int:
        return self.stream.total_bits


@dataclass
class _FrameContext:
    """Per-frame working state shared by the MB loop."""

    src: np.ndarray  # padded uint8
    recon: np.ndarray  # padded uint8 (being built)
    frame_type: FrameType
    base_qp: int
    refs_l0: list["_DpbEntry"] = field(default_factory=list)
    ref_ids: tuple[int, ...] = ()  # the display index of each of ``refs_l0``
    ref_l1: "_DpbEntry | None" = None
    mv_grid: list[list[MotionVector | None]] = field(default_factory=list)
    mb_variances: np.ndarray | None = None
    mean_variance: float = 0.0
    #: Whole-frame float64 cast of ``src``: one cast per frame, served
    #: back as views, instead of one ``astype`` per macroblock.
    src_f: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.src_f = self.src.astype(np.float64)

    def src_mb_f(self, y: int, x: int) -> np.ndarray:
        """Float64 16x16 source macroblock at plane coordinates (y, x),
        as a zero-copy view of the per-frame cast."""
        return self.src_f[y : y + 16, x : x + 16]


@dataclass(kw_only=True)
class _DpbEntry:
    """A decoded anchor picture held for reference."""

    display_index: int
    padded: PaddedReference
    chroma: tuple[np.ndarray, np.ndarray] | None = None


@dataclass(frozen=True)
class IntraCandidate:
    """The intra search's winner, as mode decision weighs it against inter."""

    mode: MBMode  # INTRA_16X16 or INTRA_4X4
    rd_cost: float
    prediction: np.ndarray  # float64 (16, 16): the best 16x16 mode's
    intra_mode: IntraMode  # the best 16x16 mode
    modes_tried: tuple[int, ...]  # by the 16x16 probe, then the 4x4 one


class Encoder:
    """Single-use-per-call encoder (stateless between :meth:`encode` calls)."""

    def __init__(
        self,
        options: EncoderOptions,
        *,
        tracer: Tracer | None = None,
        loop_opts: LoopOptimizations | None = None,
    ) -> None:
        self.options = options
        self.tracer = tracer if tracer is not None else NullTracer()
        self.loop_opts = loop_opts if loop_opts is not None else LoopOptimizations()

    # ------------------------------------------------------------------
    # public entry
    # ------------------------------------------------------------------
    def encode(self, video: FrameSequence) -> EncodeResult:
        fault_point("encoder.encode", detail=video.name)
        with obs.span(
            "encode",
            preset=self.options.preset_name,
            crf=self.options.crf,
            refs=self.options.refs,
            n_frames=len(video),
        ) as sp:
            result = self._encode_impl(video)
            sp.set(
                psnr_db=round(result.psnr_db, 3),
                bitrate_kbps=round(result.bitrate_kbps, 2),
            )
        tel = obs.current()
        if tel is not None:
            m = tel.metrics
            m.counter("encoder.encodes").inc()
            m.counter("encoder.frames").inc(len(video))
            m.histogram("encoder.heap_bytes").observe(float(self._trace.heap_bytes))
        return result

    def _encode_impl(self, video: FrameSequence) -> EncodeResult:
        start_time = time.perf_counter()
        options = self.options

        first_pass: FirstPassStats | None = None
        if options.rc_mode == "2pass-abr":
            first_pass = self._run_first_pass(video)

        sources = [f.padded_luma() for f in video]
        pad_h, pad_w = sources[0].shape
        gop = plan_gop(video, options)
        n_mb_y, n_mb_x = pad_h // 16, pad_w // 16
        self._trace = trace = EncodeTrace(
            self.tracer, self.loop_opts, options,
            pad_h=pad_h, pad_w=pad_w, n_frames=len(video),
        )
        trace.lookahead(video.width, video.height)

        rc = RateController(
            options,
            fps=video.fps,
            n_mbs_per_frame=n_mb_y * n_mb_x,
            first_pass=first_pass,
        )

        chroma_active = options.chroma and all(
            f.chroma is not None for f in video
        )
        writer = BitWriter()
        self._write_stream_header(writer, video, chroma_active)

        coded_frames: list[CodedFrame] = []
        frame_stats: list[FrameStats] = []
        dpb: list[_DpbEntry] = []
        pad = options.merange + 24

        for disp_idx in gop.decode_order:
            ftype = gop.frame_types[disp_idx]
            with obs.span(
                "encode.frame", index=disp_idx, type=ftype.value
            ) as frame_span:
                src = sources[disp_idx]
                self.tracer.begin_frame(ftype.value, disp_idx)
                trace.frame_setup(disp_idx)

                complexity = self._frame_complexity(sources, disp_idx)
                base_qp = rc.frame_qp(ftype, complexity)
                ctx = self._make_context(
                    src, ftype, base_qp, disp_idx, dpb, n_mb_y, n_mb_x
                )

                bits_before = writer.bit_count
                self._write_frame_header(writer, disp_idx, ftype, base_qp)
                mbs = self._encode_frame_mbs(ctx, writer, rc)
                chroma_recon = None
                if chroma_active:
                    chroma_recon = self._encode_chroma(
                        writer, video[disp_idx], ftype, disp_idx, dpb, base_qp
                    )
                frame_bits = writer.bit_count - bits_before

                if options.deblock_enabled:
                    ctx.recon, n_edges = self._run_deblock(ctx.recon, base_qp)
                rc.update(frame_bits)
                frame_span.set(qp=base_qp, bits=frame_bits)

                coded_frames.append(
                    CodedFrame(
                        index=disp_idx,
                        frame_type=ftype,
                        qp=base_qp,
                        macroblocks=mbs,
                        recon=ctx.recon,
                        bits=frame_bits,
                        chroma_recon=chroma_recon,
                    )
                )
                frame_stats.append(
                    self._make_stats(ftype, base_qp, frame_bits, mbs)
                )
                trace.rc_update()

                if ftype is not FrameType.B:
                    entry = _DpbEntry(
                        display_index=disp_idx,
                        padded=PaddedReference.from_plane(ctx.recon, pad),
                        chroma=chroma_recon,
                    )
                    trace.dpb_store(disp_idx)
                    dpb.append(entry)
                    dpb.sort(key=lambda e: e.display_index)
                    # Retain enough anchors for refs past + 1 future reference.
                    if len(dpb) > options.refs + 1:
                        dpb.pop(0)

        stream = CodedStream(
            width=video.width,
            height=video.height,
            fps=video.fps,
            frames=coded_frames,
            bitstream=writer.getvalue(),
        )
        recon_video = FrameSequence.from_lumas(
            [
                f.recon[: video.height, : video.width]
                for f in stream.frames_in_display_order()
            ],
            video.fps,
            name=f"{video.name}:recon",
        )
        quality = psnr_sequence(video, recon_video)
        rate = bitrate_kbps(writer.bit_count, len(video), video.fps)
        self.tracer.flush()  # seal the trace inside the timed encode
        return EncodeResult(
            stream=stream,
            psnr_db=quality,
            bitrate_kbps=rate,
            encode_seconds=time.perf_counter() - start_time,
            frame_stats=frame_stats,
            gop=gop,
            options=options,
            first_pass=first_pass,
        )

    # ------------------------------------------------------------------
    # two-pass support
    # ------------------------------------------------------------------
    def _run_first_pass(self, video: FrameSequence) -> FirstPassStats:
        """Fast first pass (untraced): measure per-frame complexity."""
        fast = self.options.with_updates(
            rc_mode="abr",
            me="dia",
            subme=min(self.options.subme, 2),
            trellis=0,
            refs=1,
            preset_name=f"{self.options.preset_name}+pass1",
        )
        result = Encoder(fast).encode(video)
        stats = FirstPassStats()
        for frame in result.stream.frames:
            stats.add(float(frame.bits))
        return stats

    # ------------------------------------------------------------------
    # per-frame helpers
    # ------------------------------------------------------------------
    def _make_context(
        self,
        src: np.ndarray,
        ftype: FrameType,
        base_qp: int,
        disp_idx: int,
        dpb: list[_DpbEntry],
        n_mb_y: int,
        n_mb_x: int,
    ) -> _FrameContext:
        ctx = _FrameContext(
            src=src,
            recon=np.zeros_like(src),
            frame_type=ftype,
            base_qp=base_qp,
        )
        if ftype is not FrameType.I:
            past = [e for e in dpb if e.display_index < disp_idx]
            past.sort(key=lambda e: -e.display_index)  # most recent first
            ctx.refs_l0 = past[: self.options.refs]
            if not ctx.refs_l0 and dpb:
                ctx.refs_l0 = [dpb[0]]
            ctx.ref_ids = tuple(e.display_index for e in ctx.refs_l0)
        if ftype is FrameType.B:
            future = [e for e in dpb if e.display_index > disp_idx]
            ctx.ref_l1 = min(future, key=lambda e: e.display_index) if future else None
        ctx.mv_grid = [[None] * n_mb_x for _ in range(n_mb_y)]
        # Per-MB variance for adaptive quantization.
        h16 = n_mb_y * 16
        w16 = n_mb_x * 16
        tiles = (
            src[:h16, :w16]
            .reshape(n_mb_y, 16, n_mb_x, 16)
            .transpose(0, 2, 1, 3)
            .astype(np.float64)
        )
        ctx.mb_variances = tiles.var(axis=(2, 3))
        ctx.mean_variance = float(ctx.mb_variances.mean())
        return ctx

    def _frame_complexity(self, sources: list[np.ndarray], disp_idx: int) -> float:
        if disp_idx == 0:
            return float(np.mean(np.abs(np.diff(sources[0].astype(np.float64)))))
        a = sources[disp_idx].astype(np.float64)
        b = sources[disp_idx - 1].astype(np.float64)
        return float(np.mean(np.abs(a - b)))

    def _run_deblock(self, recon: np.ndarray, qp: int) -> tuple[np.ndarray, int]:
        filtered, n_edges = deblock_plane(recon, qp, offset=self.options.deblock[1])
        self._trace.deblock(recon, filtered, n_edges)
        return filtered, n_edges

    def _encode_frame_mbs(
        self,
        ctx: _FrameContext,
        writer: BitWriter,
        rc: RateController,
    ) -> list[CodedMacroblock]:
        mbs: list[CodedMacroblock] = []
        n_mb_y = len(ctx.mv_grid)
        n_mb_x = len(ctx.mv_grid[0])
        for mb_y in range(n_mb_y):
            for mb_x in range(n_mb_x):
                mbs.append(self._encode_mb(ctx, mb_y, mb_x, writer, rc))
        self._trace.frame_modes(mbs)
        return mbs

    # ------------------------------------------------------------------
    # macroblock encoding
    # ------------------------------------------------------------------
    def _encode_mb(
        self,
        ctx: _FrameContext,
        mb_y: int,
        mb_x: int,
        writer: BitWriter,
        rc: RateController,
    ) -> CodedMacroblock:
        y, x = mb_y * 16, mb_x * 16
        src_mb = ctx.src[y : y + 16, x : x + 16]
        assert ctx.mb_variances is not None
        qp_mb = rc.mb_qp(
            ctx.base_qp, float(ctx.mb_variances[mb_y, mb_x]), ctx.mean_variance
        )
        lam = rd_lambda(qp_mb)
        pred_mv = predict_mv(ctx.mv_grid, mb_y, mb_x)

        inter: InterCandidate | None = None
        skip_candidate: np.ndarray | None = None
        search: InterSearch | None = None
        if ctx.frame_type is not FrameType.I and ctx.refs_l0:
            inter, skip_candidate, search = self._search_inter(
                ctx, mb_y, mb_x, src_mb, pred_mv, qp_mb
            )

        # SKIP check: prediction at the predicted MV whose residual
        # quantizes to all-zero costs essentially nothing to code.
        if skip_candidate is not None:
            residual = ctx.src_mb_f(y, x) - skip_candidate
            levels = trellis_quantize(
                forward_4x4(blockify_16x16(residual)), qp_mb, level=0
            )
            if not np.any(levels):
                mb = self._emit_skip(ctx, mb_y, mb_x, skip_candidate, qp_mb, pred_mv, writer, rc)
                self._trace.record(mb, search=search, modes_tried=(), coeffs=None)
                return mb

        intra_cand = self._search_intra(ctx, mb_y, mb_x, src_mb, qp_mb, inter)

        # Mode decision: lowest distortion + lambda * rate wins.
        choices: list[tuple[float, str]] = []
        if inter is not None:
            choices.append((inter.rd_cost(qp_mb), "inter"))
        if intra_cand is not None:
            choices.append((intra_cand.rd_cost, "intra"))
        choices.sort()
        use = choices[0][1]

        if use == "intra" and intra_cand is not None and intra_cand.mode is MBMode.INTRA_4X4:
            mb, coeffs = self._emit_intra4(ctx, mb_y, mb_x, qp_mb, writer, rc), None
        else:
            if use == "intra" and intra_cand is not None:
                mode, prediction, mvs, mv1, intra_mode = (
                    MBMode.INTRA_16X16, intra_cand.prediction, [], None, intra_cand.intra_mode
                )
            else:
                assert inter is not None
                mode, mvs, mv1, intra_mode = inter.mode, inter.mvs, inter.mv1, IntraMode.DC
                prediction = np.asarray(inter.prediction, dtype=np.float64)
            mb, coeffs = self._transform_and_code(
                ctx, mb_y, mb_x, prediction, mode, mvs, mv1, intra_mode, qp_mb, pred_mv,
                writer, rc,
            )
        modes_tried = intra_cand.modes_tried if intra_cand is not None else ()
        self._trace.record(mb, search=search, modes_tried=modes_tried, coeffs=coeffs)
        return mb

    # -- inter search ---------------------------------------------------
    def _search_inter(
        self,
        ctx: _FrameContext,
        mb_y: int,
        mb_x: int,
        src_mb: np.ndarray,
        pred_mv: MotionVector,
        qp_mb: int,
    ) -> tuple[InterCandidate, np.ndarray | None, InterSearch]:
        options = self.options
        y, x = mb_y * 16, mb_x * 16
        refs = [e.padded for e in ctx.refs_l0]
        best, ref_idx, n_points, walks = choose_inter_ref(
            src_mb, refs, y, x, pred_mv, options, qp_mb
        )
        mv = MotionVector(best.mv_x, best.mv_y, ref_idx)
        ref = refs[ref_idx]
        prediction = fetch_prediction(ref, y, x, mv.dx, mv.dy)
        search = InterSearch(
            refs=ctx.ref_ids, walks=walks, ref=ref_idx,
            subpel=mv.dx % 4 != 0 or mv.dy % 4 != 0, partitions=[], split=[],
        )
        rate = mv_bits(mv, pred_mv) + ue_bits(MODE_IDS[MBMode.INTER_16X16])
        candidate = InterCandidate(
            mode=MBMode.INTER_16X16,
            mvs=[mv],
            prediction=prediction,
            distortion=best.cost,
            rate_bits=rate,
            n_search_points=n_points,
            positions=best.positions,
        )

        # Sub-partition candidates (Table II `partitions`).
        part8 = search_partitions(
            src_mb, ref, y, x, mv, pred_mv, options, size=8
        )
        if part8 is not None:
            search.partitions.append((part8.n_search_points, len(part8.mvs)))
            better = part8.rd_cost(qp_mb) < candidate.rd_cost(qp_mb)
            search.split.append(better)
            if better:
                candidate = part8
                part4 = search_partitions(
                    src_mb, ref, y, x, mv, pred_mv, options, size=4
                )
                if part4 is not None:
                    search.partitions.append((part4.n_search_points, len(part4.mvs)))
                    better4 = part4.rd_cost(qp_mb) < candidate.rd_cost(qp_mb)
                    search.split.append(better4)
                    if better4:
                        candidate = part4

        # B-frame: try the future reference and bi-prediction.
        if ctx.frame_type is FrameType.B and ctx.ref_l1 is not None:
            candidate = self._try_bi(ctx, mb_y, mb_x, src_mb, pred_mv, qp_mb, candidate, search)

        # The SKIP candidate is the L0 ref-0 block at the predicted MV.
        skip_pred: np.ndarray | None = None
        if ctx.frame_type is FrameType.P:
            fx, fy = pred_mv.full_pel
            skip_pred = refs[0].block(y + fy, x + fx).astype(np.float64)
        return candidate, skip_pred, search

    def _try_bi(
        self,
        ctx: _FrameContext,
        mb_y: int,
        mb_x: int,
        src_mb: np.ndarray,
        pred_mv: MotionVector,
        qp_mb: int,
        candidate: InterCandidate,
        search: InterSearch,
    ) -> InterCandidate:
        """The better of ``candidate`` and bi-prediction with the future
        reference; ``search`` records the future reference's walk."""
        assert ctx.ref_l1 is not None
        options = self.options
        y, x = mb_y * 16, mb_x * 16
        l1 = ctx.ref_l1.padded
        best1, _, n_points1, (walk1,) = choose_inter_ref(
            src_mb, [l1], y, x, pred_mv, options, qp_mb
        )
        search.bi = (ctx.ref_l1.display_index, walk1)
        mv1 = MotionVector(best1.mv_x, best1.mv_y, 0)
        pred1 = fetch_prediction(l1, y, x, mv1.dx, mv1.dy)
        # Bi-prediction: average of the L0 16x16 prediction (recomputed
        # strictly from the coded MV so the decoder can reproduce it) and
        # the L1 prediction.
        mv0 = candidate.mvs[0]
        l0 = ctx.refs_l0[mv0.ref].padded
        pred0 = fetch_prediction(l0, y, x, mv0.dx, mv0.dy)
        bi_pred = (pred0 + pred1) / 2.0
        bi_dist = float(np.sum(np.abs(ctx.src_mb_f(y, x) - bi_pred)))
        bi_rate = (
            mv_bits(mv0, pred_mv) + mv_bits(mv1, pred_mv) + ue_bits(MODE_IDS[MBMode.BI])
        )
        bi = InterCandidate(
            mode=MBMode.BI,
            mvs=[mv0],
            prediction=bi_pred,
            distortion=bi_dist,
            rate_bits=bi_rate,
            n_search_points=n_points1,
            positions=[],
            mv1=mv1,
        )
        if bi.rd_cost(qp_mb) < candidate.rd_cost(qp_mb):
            return bi
        return candidate

    # -- intra search ---------------------------------------------------
    def _search_intra(
        self,
        ctx: _FrameContext,
        mb_y: int,
        mb_x: int,
        src_mb: np.ndarray,
        qp_mb: int,
        inter: InterCandidate | None,
    ) -> IntraCandidate | None:
        """The cheaper of INTRA_16X16 and INTRA_4X4, or None on the early-out.

        The INTRA_4X4 candidate is only *scored* here; if it wins, the MB
        is re-encoded by :meth:`_emit_intra4` (true sequential coding).
        """
        options = self.options
        y, x = mb_y * 16, mb_x * 16
        # Skip the intra search entirely when inter prediction is already
        # excellent (x264's early-out), except on I frames.
        if (
            inter is not None
            and ctx.frame_type is not FrameType.I
            and inter.distortion < 16 * 16 * 1.5
        ):
            return None
        i16 = best_intra_16x16(src_mb, ctx.recon, y, x)
        modes_tried = (i16.n_modes_tried,)
        rate16 = ue_bits(MODE_IDS[MBMode.INTRA_16X16]) + ue_bits(int(i16.mode))
        cost16 = i16.sad + rd_lambda(qp_mb) * rate16

        best_mode = MBMode.INTRA_16X16
        best_cost = cost16
        if "i4x4" in options.partition_candidates:
            # Quick i4x4 probe: per-4x4 DC/V/H from source neighbors.
            pred4, sad4, tried4 = predict_4x4_blocks(src_mb, ctx.recon, y, x)
            modes_tried += (tried4,)
            rate4 = ue_bits(MODE_IDS[MBMode.INTRA_4X4]) + 16 * 3
            cost4 = sad4 + rd_lambda(qp_mb) * rate4
            if cost4 < best_cost:
                best_mode = MBMode.INTRA_4X4
                best_cost = cost4

        return IntraCandidate(
            best_mode, best_cost, i16.prediction.astype(np.float64), i16.mode, modes_tried
        )

    # -- emit paths -------------------------------------------------------
    def _emit_skip(
        self,
        ctx: _FrameContext,
        mb_y: int,
        mb_x: int,
        prediction: np.ndarray,
        qp_mb: int,
        pred_mv: MotionVector,
        writer: BitWriter,
        rc: RateController,
    ) -> CodedMacroblock:
        bits_before = writer.bit_count
        write_ue(writer, MODE_IDS[MBMode.SKIP])
        bits = writer.bit_count - bits_before
        y, x = mb_y * 16, mb_x * 16
        recon_mb = np.clip(np.round(prediction), 0, 255).astype(np.uint8)
        ctx.recon[y : y + 16, x : x + 16] = recon_mb
        ctx.mv_grid[mb_y][mb_x] = pred_mv
        rc.note_mb_bits(bits)
        return CodedMacroblock(
            mb_x=mb_x, mb_y=mb_y, mode=MBMode.SKIP, qp=qp_mb,
            mvs=[pred_mv], bits=bits,
        )

    def _emit_intra4(
        self,
        ctx: _FrameContext,
        mb_y: int,
        mb_x: int,
        qp_mb: int,
        writer: BitWriter,
        rc: RateController,
    ) -> CodedMacroblock:
        """True sequential intra-4x4 coding (decodable).

        Each block predicts from the reconstruction its predecessors wrote;
        the dependency chain is walked a diagonal at a time
        (:func:`~repro.codec.intra.code_intra4_wavefront`) and the sixteen
        (mode, block) pairs are emitted as one tagged batch.
        """
        y0, x0 = mb_y * 16, mb_x * 16
        bits_before = writer.bit_count
        write_ue(writer, MODE_IDS[MBMode.INTRA_4X4])
        write_se(writer, qp_mb - ctx.base_qp)
        modes4, levels_all = code_intra4_wavefront(
            ctx.src_mb_f(y0, x0), ctx.recon, y0, x0, qp_mb, self.options.trellis
        )
        encode_tagged_blocks(writer, modes4, levels_all)
        bits = writer.bit_count - bits_before
        ctx.mv_grid[mb_y][mb_x] = None
        rc.note_mb_bits(bits)
        return CodedMacroblock(
            mb_x=mb_x, mb_y=mb_y, mode=MBMode.INTRA_4X4, qp=qp_mb,
            intra_modes4=modes4, coeffs=levels_all, bits=bits,
        )

    def _transform_and_code(
        self,
        ctx: _FrameContext,
        mb_y: int,
        mb_x: int,
        prediction: np.ndarray,
        mode: MBMode,
        mvs: list[MotionVector],
        mv1: MotionVector | None,
        intra_mode: IntraMode,
        qp_mb: int,
        pred_mv: MotionVector,
        writer: BitWriter,
        rc: RateController,
    ) -> tuple[CodedMacroblock, np.ndarray]:
        """Code the residual of ``prediction``; returns the macroblock and
        the transform coefficients its levels were quantized from."""
        options = self.options
        y, x = mb_y * 16, mb_x * 16
        residual = ctx.src_mb_f(y, x) - prediction
        blocks = blockify_16x16(residual)
        coeffs = forward_4x4(blocks)
        levels = trellis_quantize(coeffs, qp_mb, level=options.trellis)

        bits_before = writer.bit_count
        write_ue(writer, MODE_IDS[mode])
        if mode is MBMode.INTRA_16X16:
            write_ue(writer, int(intra_mode))
        elif mode is MBMode.BI:
            assert mv1 is not None
            write_ue(writer, mvs[0].ref)
            write_se(writer, mvs[0].dx - pred_mv.dx)
            write_se(writer, mvs[0].dy - pred_mv.dy)
            write_se(writer, mv1.dx - pred_mv.dx)
            write_se(writer, mv1.dy - pred_mv.dy)
        else:  # INTER_16X16 / INTER_8X8 / INTER_4X4
            write_ue(writer, mvs[0].ref)
            for mv in mvs:
                write_se(writer, mv.dx - pred_mv.dx)
                write_se(writer, mv.dy - pred_mv.dy)
        write_se(writer, qp_mb - ctx.base_qp)
        encode_blocks(writer, levels)
        bits = writer.bit_count - bits_before

        recon_blocks = inverse_4x4(dequantize(levels, qp_mb))
        recon_mb = np.minimum(
            np.maximum(np.round(prediction + unblockify_16x16(recon_blocks)), 0.0),
            255.0,
        ).astype(np.uint8)
        ctx.recon[y : y + 16, x : x + 16] = recon_mb
        ctx.mv_grid[mb_y][mb_x] = mvs[0] if mvs else None
        rc.note_mb_bits(bits)
        return CodedMacroblock(
            mb_x=mb_x, mb_y=mb_y, mode=mode, qp=qp_mb, intra_mode=intra_mode,
            mvs=mvs, mv1=mv1, coeffs=levels, bits=bits,
        ), coeffs

    # ------------------------------------------------------------------
    # stream syntax
    # ------------------------------------------------------------------
    def _write_stream_header(
        self, writer: BitWriter, video: FrameSequence, chroma_active: bool
    ) -> None:
        write_ue(writer, video.width)
        write_ue(writer, video.height)
        write_ue(writer, int(round(video.fps * 1000)))
        write_ue(writer, len(video))
        write_ue(writer, 1 if self.options.deblock_enabled else 0)
        write_se(writer, self.options.deblock[1])
        write_ue(writer, 1 if chroma_active else 0)

    def _encode_chroma(
        self,
        writer: BitWriter,
        frame,
        ftype: FrameType,
        disp_idx: int,
        dpb: list[_DpbEntry],
        base_qp: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Code both chroma planes; returns their reconstructions."""
        assert frame.chroma is not None
        ref_chroma: tuple[np.ndarray, np.ndarray] | None = None
        if ftype is not FrameType.I:
            past = [
                e for e in dpb
                if e.display_index < disp_idx and e.chroma is not None
            ]
            if past:
                ref_chroma = max(past, key=lambda e: e.display_index).chroma
        recons = []
        for i, plane in enumerate(frame.chroma):
            prev = ref_chroma[i] if ref_chroma is not None else None
            recons.append(
                encode_chroma_plane(
                    writer, plane, prev, base_qp, trellis=self.options.trellis
                )
            )
            self._trace.chroma_plane(plane)
        return (recons[0], recons[1])

    @staticmethod
    def _write_frame_header(
        writer: BitWriter, disp_idx: int, ftype: FrameType, qp: int
    ) -> None:
        write_ue(writer, disp_idx)
        write_ue(writer, FRAME_TYPE_IDS[ftype])
        write_ue(writer, qp)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    @staticmethod
    def _make_stats(
        ftype: FrameType, qp: int, bits: int, mbs: list[CodedMacroblock]
    ) -> FrameStats:
        return FrameStats(
            frame_type=ftype,
            qp=qp,
            bits=bits,
            sad=0.0,
            skip_mbs=sum(1 for m in mbs if m.mode is MBMode.SKIP),
            intra_mbs=sum(1 for m in mbs if m.mode.is_intra),
            inter_mbs=sum(1 for m in mbs if m.mode.is_inter),
        )

def encode(
    video: FrameSequence,
    options: EncoderOptions | None = None,
    *,
    tracer: Tracer | None = None,
    loop_opts: LoopOptimizations | None = None,
) -> EncodeResult:
    """Convenience wrapper: encode ``video`` with ``options``."""
    return Encoder(
        options if options is not None else EncoderOptions(),
        tracer=tracer,
        loop_opts=loop_opts,
    ).encode(video)
