"""The kernel catalog: static models of the encoder's hot functions.

Each entry stands for a *family* of specialized routines in a real
encoder binary (x264 ships dozens of block-size and CPU-feature variants
of every primitive), which is why the code footprints are substantially
larger than a single textbook loop. Sizes are chosen so the per-frame
instruction working set is on the order of a hundred kilobytes — the
regime where the paper observes front-end (MITE/DSB, i-cache) issues —
while any single kernel still fits the L1i.

Instruction mixes are per innermost-loop iteration; what an "iteration"
means for each kernel is documented inline and must match what the
encoder passes to :meth:`Tracer.kernel`.
"""

from __future__ import annotations

from repro.trace.program import InstrMix, Kernel, LoopNest, Program

__all__ = ["KERNELS", "build_program"]


def _k(
    name: str,
    *,
    per_iter: InstrMix,
    per_call: InstrMix,
    hot: int,
    cold: int,
    nest: LoopNest | None = None,
) -> Kernel:
    return Kernel(
        name=name,
        instr_mix=per_iter,
        call_overhead=per_call,
        hot_lines=hot,
        cold_lines=cold,
        loop_nest=nest if nest is not None else LoopNest(),
    )


KERNELS: dict[str, Kernel] = {
    k.name: k
    for k in [
        # Motion estimation SAD: iteration = one 16-pixel row of one
        # candidate position (SIMD abs-diff + accumulate).
        _k(
            "me_sad",
            per_iter=InstrMix(alu=6, load=4, branch=1),
            per_call=InstrMix(alu=12, load=2, branch=3),
            hot=42,
            cold=30,
            nest=LoopNest(depth=3, tileable=False, stride_bytes=1),
        ),
        # Half/quarter-pel interpolation: iteration = one output row
        # (6-tap-ish filter, multiply heavy).
        _k(
            "me_interp",
            per_iter=InstrMix(alu=10, mul=6, load=6, store=2, branch=1),
            per_call=InstrMix(alu=16, branch=4),
            hot=64,
            cold=36,
            nest=LoopNest(depth=2, tileable=True, stride_bytes=1),
        ),
        # Hadamard SATD: iteration = one 4x4 block.
        _k(
            "satd",
            per_iter=InstrMix(alu=36, load=8, branch=1),
            per_call=InstrMix(alu=10, branch=2),
            hot=36,
            cold=14,
        ),
        # Intra 16x16 prediction: iteration = one mode evaluated.
        _k(
            "intra_pred16",
            per_iter=InstrMix(alu=70, load=24, store=16, branch=6),
            per_call=InstrMix(alu=24, load=8, branch=6),
            hot=52,
            cold=40,
        ),
        # Intra 4x4 prediction: iteration = one mode of one 4x4 block
        # (sequential dependency chain, very branchy).
        _k(
            "intra_pred4",
            per_iter=InstrMix(alu=22, load=8, store=4, branch=5),
            per_call=InstrMix(alu=18, branch=6),
            hot=58,
            cold=44,
        ),
        # Forward transform: iteration = one 4x4 block.
        _k(
            "dct4",
            per_iter=InstrMix(alu=34, mul=8, load=6, store=5, branch=1),
            per_call=InstrMix(alu=8, branch=2),
            hot=22,
            cold=6,
            nest=LoopNest(depth=2, tileable=True, stride_bytes=4),
        ),
        # Inverse transform + reconstruction add: iteration = one 4x4 block.
        _k(
            "idct4",
            per_iter=InstrMix(alu=36, mul=8, load=7, store=6, branch=1),
            per_call=InstrMix(alu=8, branch=2),
            hot=22,
            cold=6,
            nest=LoopNest(depth=2, tileable=True, stride_bytes=4),
        ),
        # Quantization: iteration = one 4x4 coefficient block.
        _k(
            "quant",
            per_iter=InstrMix(alu=22, mul=16, load=5, store=4, branch=2),
            per_call=InstrMix(alu=6, branch=2),
            hot=18,
            cold=6,
            nest=LoopNest(depth=2, tileable=True, stride_bytes=4),
        ),
        # Trellis RD quantization: iteration = one *coefficient* visited
        # (data-dependent, branch heavy).
        _k(
            "trellis",
            per_iter=InstrMix(alu=12, mul=3, load=3, store=1, branch=3),
            per_call=InstrMix(alu=14, branch=4),
            hot=66,
            cold=48,
        ),
        # Coefficient entropy coding: iteration = one nonzero token.
        _k(
            "entropy_coeff",
            per_iter=InstrMix(alu=10, load=2, store=1, branch=3),
            per_call=InstrMix(alu=8, load=2, branch=3),
            hot=54,
            cold=42,
        ),
        # Macroblock header coding: iteration = one macroblock.
        _k(
            "entropy_header",
            per_iter=InstrMix(alu=34, load=6, store=5, branch=8),
            per_call=InstrMix(),
            hot=28,
            cold=22,
        ),
        # Motion compensation / prediction copy: iteration = one row.
        _k(
            "mc_copy",
            per_iter=InstrMix(alu=4, load=4, store=3, branch=1),
            per_call=InstrMix(alu=6, branch=2),
            hot=14,
            cold=6,
            nest=LoopNest(depth=2, tileable=True, stride_bytes=1),
        ),
        # Deblocking: iteration = one 4-pixel edge segment (branchy masks).
        _k(
            "deblock",
            per_iter=InstrMix(alu=16, load=6, store=3, branch=4),
            per_call=InstrMix(alu=12, branch=4),
            hot=46,
            cold=34,
            nest=LoopNest(depth=2, tileable=True, stride_bytes=1),
        ),
        # MV prediction + mode decision bookkeeping: iteration = one
        # candidate mode compared.
        _k(
            "mode_decide",
            per_iter=InstrMix(alu=26, mul=2, load=8, store=2, branch=7),
            per_call=InstrMix(alu=20, load=6, branch=6),
            hot=62,
            cold=52,
        ),
        # Rate control: iteration = one frame-level update.
        _k(
            "rc_update",
            per_iter=InstrMix(alu=90, mul=14, load=22, store=12, branch=12),
            per_call=InstrMix(),
            hot=24,
            cold=20,
        ),
        # Lookahead / GOP probes: iteration = one probe row.
        _k(
            "lookahead",
            per_iter=InstrMix(alu=6, load=4, branch=1),
            per_call=InstrMix(alu=10, branch=3),
            hot=30,
            cold=24,
        ),
        # Frame setup (copies, padding): iteration = one row.
        _k(
            "frame_setup",
            per_iter=InstrMix(alu=2, load=8, store=8, branch=1),
            per_call=InstrMix(alu=10, branch=2),
            hot=10,
            cold=4,
            nest=LoopNest(depth=2, tileable=False, stride_bytes=1),
        ),
    ]
}


def build_program() -> Program:
    """A fresh :class:`Program` over the full catalog with default layout."""
    return Program(KERNELS)
