"""Static program model: kernels, instruction mixes, and code layout.

A :class:`Kernel` stands for one hot function of the encoder binary. Its
``instr_mix`` gives the dynamic instruction breakdown *per iteration* of
its innermost loop; ``call_overhead`` adds the per-invocation prologue /
setup instructions. ``hot_lines``/``cold_lines`` give the static code
footprint in 64-byte i-cache lines — the cold part models error handling
and rarely-taken paths that a naive compiler interleaves with the hot
path (exactly the layout problem AutoFDO exists to fix).

A :class:`CodeLayout` assigns every line a virtual address. The default
layout places each kernel's hot and cold lines contiguously in source
order, i.e. the hot working set is diluted by cold code. AutoFDO
(:mod:`repro.optim.autofdo`) produces an alternative layout that packs
hot lines together.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["InstrMix", "LoopNest", "Kernel", "CodeLayout", "Program", "CACHE_LINE"]

CACHE_LINE = 64
CODE_BASE = 0x0040_0000  # typical text-segment base


@dataclass(frozen=True)
class InstrMix:
    """Instruction counts by class (per loop iteration or per call)."""

    alu: float = 0.0  # integer/SIMD arithmetic
    mul: float = 0.0  # multiplies / long-latency ALU
    load: float = 0.0
    store: float = 0.0
    branch: float = 0.0

    @property
    def total(self) -> float:
        return self.alu + self.mul + self.load + self.store + self.branch

    def scaled(self, factor: float) -> "InstrMix":
        return InstrMix(
            self.alu * factor,
            self.mul * factor,
            self.load * factor,
            self.store * factor,
            self.branch * factor,
        )

    def __add__(self, other: "InstrMix") -> "InstrMix":
        return InstrMix(
            self.alu + other.alu,
            self.mul + other.mul,
            self.load + other.load,
            self.store + other.store,
            self.branch + other.branch,
        )


@dataclass(frozen=True)
class LoopNest:
    """Loop-nest metadata consumed by the Graphite model.

    ``depth`` is the nest depth; ``tileable`` marks nests whose iteration
    order can legally be tiled/interchanged (no loop-carried dependence on
    the traversal order); ``stride_bytes`` is the innermost access stride.
    """

    depth: int = 1
    tileable: bool = False
    stride_bytes: int = 1


@dataclass(frozen=True)
class Kernel:
    """One hot function of the modeled encoder binary."""

    name: str
    instr_mix: InstrMix  # per innermost-loop iteration
    call_overhead: InstrMix  # per invocation
    hot_lines: int  # i-cache lines of hot code
    cold_lines: int  # i-cache lines of cold code interleaved by default
    loop_nest: LoopNest = field(default_factory=LoopNest)

    @property
    def total_lines(self) -> int:
        return self.hot_lines + self.cold_lines


@dataclass
class CodeLayout:
    """Assignment of every kernel's code lines to virtual addresses.

    ``fetch_line_addrs[kernel]`` are the i-cache line addresses touched by
    one invocation of the kernel's hot path. In the default (source-order,
    interleaved) layout the hot instructions are spread across the whole
    hot+cold extent, so every line of the extent is partially hot and the
    per-invocation fetch footprint equals the full extent. A
    profile-guided layout packs hot instructions contiguously, shrinking
    the fetch footprint to exactly the hot lines — this is the i-cache
    mechanism behind AutoFDO's win.
    """

    hot_line_addrs: dict[str, np.ndarray]
    cold_line_addrs: dict[str, np.ndarray]
    fetch_line_addrs: dict[str, np.ndarray]
    total_lines: int
    description: str = "default"
    branch_hints: bool = False  # profile-informed static prediction

    def fetch_footprint_lines(self) -> int:
        return int(sum(len(a) for a in self.fetch_line_addrs.values()))


class Program:
    """A set of kernels plus the active code layout."""

    def __init__(self, kernels: dict[str, Kernel], layout: CodeLayout | None = None):
        if not kernels:
            raise ValueError("Program requires at least one kernel")
        self.kernels = dict(kernels)
        self.layout = layout if layout is not None else default_layout(self.kernels)

    def kernel(self, name: str) -> Kernel:
        try:
            return self.kernels[name]
        except KeyError:
            raise KeyError(
                f"unknown kernel {name!r}; known: {sorted(self.kernels)}"
            ) from None

    def with_layout(self, layout: CodeLayout) -> "Program":
        return Program(self.kernels, layout)


def default_layout(kernels: dict[str, Kernel]) -> CodeLayout:
    """Source-order layout with cold code interleaved into hot regions.

    Mirrors what a compiler emits without profile feedback: each
    function's hot basic blocks sit next to its own cold blocks, so
    fetching the hot path drags cold lines' worth of address space into
    the i-cache working set.
    """
    hot: dict[str, np.ndarray] = {}
    cold: dict[str, np.ndarray] = {}
    fetch: dict[str, np.ndarray] = {}
    cursor = 0
    for name in sorted(kernels):  # deterministic source order
        k = kernels[name]
        # Interleave: hot lines are spread across the hot+cold extent, so
        # the hot path's fetch footprint is the entire extent.
        extent = k.total_lines
        all_lines = np.arange(cursor, cursor + extent, dtype=np.int64)
        addrs = CODE_BASE + all_lines * CACHE_LINE
        if k.cold_lines > 0 and k.hot_lines > 0:
            hot_idx = np.linspace(0, extent - 1, k.hot_lines).astype(np.int64)
            mask = np.zeros(extent, dtype=bool)
            mask[hot_idx] = True
            hot[name] = addrs[mask]
            cold[name] = addrs[~mask]
        else:
            hot[name] = addrs[: k.hot_lines]
            cold[name] = addrs[k.hot_lines :]
        fetch[name] = addrs
        cursor += extent
    return CodeLayout(
        hot, cold, fetch, cursor, description="default(source-order)"
    )
