"""Microarchitecture configuration (the Table IV parameter surface).

All capacities are in bytes (caches) or entries (TLB, ROB, RS, SB). The
``data_capacity_scale`` divisor shrinks *data-side* cache capacities for
proxy-scale workloads: the synthetic clips used in simulation sweeps are
spatially downscaled stand-ins for the paper's 480p–2160p inputs, so the
simulator preserves the footprint-to-capacity ratios by scaling data
capacities by the same factor. Instruction-side capacities are never
scaled (code footprint does not depend on video resolution).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro._util import check_choice, check_positive

__all__ = ["MicroarchConfig", "CacheParams"]


@dataclass(frozen=True)
class CacheParams:
    """Geometry of one cache level."""

    size_bytes: int
    assoc: int
    line_bytes: int = 64
    latency: int = 4  # hit latency in cycles

    def __post_init__(self) -> None:
        check_positive("size_bytes", self.size_bytes)
        check_positive("assoc", self.assoc)
        check_positive("line_bytes", self.line_bytes)
        check_positive("latency", self.latency)
        n_lines = self.size_bytes // self.line_bytes
        if n_lines < self.assoc:
            raise ValueError(
                f"cache of {self.size_bytes}B cannot be {self.assoc}-way"
            )

    @property
    def n_sets(self) -> int:
        return max(1, self.size_bytes // self.line_bytes // self.assoc)

    def scaled(self, divisor: float) -> "CacheParams":
        """Capacity-scaled copy (associativity preserved, >= 1 set)."""
        if divisor <= 0:
            raise ValueError("divisor must be positive")
        new_size = max(int(self.size_bytes / divisor), self.assoc * self.line_bytes)
        return replace(self, size_bytes=new_size)


@dataclass(frozen=True)
class MicroarchConfig:
    """One simulated processor configuration (one Table IV column)."""

    name: str = "baseline"
    # --- memory hierarchy ---
    l1d: CacheParams = CacheParams(32 * 1024, 8, latency=4)
    l1i: CacheParams = CacheParams(32 * 1024, 8, latency=4)
    l2: CacheParams = CacheParams(256 * 1024, 8, latency=12)
    l3: CacheParams = CacheParams(8 * 1024 * 1024, 16, latency=35)
    l4: CacheParams | None = None  # be_op1 adds an L4
    mem_latency: int = 160
    itlb_entries: int = 128
    page_bytes: int = 4096
    itlb_miss_penalty: int = 20
    # --- core ---
    dispatch_width: int = 4
    rob_size: int = 128
    rs_size: int = 36
    sb_size: int = 32
    issue_at_dispatch: bool = False
    branch_predictor: str = "pentium_m"  # or "tage", "static"
    branch_mispredict_penalty: int = 15
    # DSB (decoded uop buffer) capacity in cache lines of hot loop body.
    dsb_lines: int = 48
    # --- workload scaling (see module docstring) ---
    data_capacity_scale: float = 1.0

    def __post_init__(self) -> None:
        check_positive("dispatch_width", self.dispatch_width)
        check_positive("rob_size", self.rob_size)
        check_positive("rs_size", self.rs_size)
        check_positive("sb_size", self.sb_size)
        check_positive("mem_latency", self.mem_latency)
        check_positive("itlb_entries", self.itlb_entries)
        check_choice(
            "branch_predictor", self.branch_predictor, ("pentium_m", "tage", "static")
        )
        if self.data_capacity_scale < 1.0:
            raise ValueError("data_capacity_scale must be >= 1")

    def with_updates(self, **changes: object) -> "MicroarchConfig":
        return replace(self, **changes)  # type: ignore[arg-type]

    def effective_l1d(self) -> CacheParams:
        return self.l1d.scaled(self.data_capacity_scale)

    def effective_l2_data(self) -> CacheParams:
        return self.l2.scaled(self.data_capacity_scale)

    def effective_l3_data(self) -> CacheParams:
        return self.l3.scaled(self.data_capacity_scale)

    def effective_l4_data(self) -> CacheParams | None:
        if self.l4 is None:
            return None
        return self.l4.scaled(self.data_capacity_scale)

    def effective_data_levels(self) -> list[CacheParams]:
        """The capacity-scaled data hierarchy, nearest first: L1d, L2, L3
        and the L4 when the configuration has one."""
        levels = [
            self.effective_l1d(),
            self.effective_l2_data(),
            self.effective_l3_data(),
        ]
        l4 = self.effective_l4_data()
        return levels if l4 is None else [*levels, l4]

    def describe(self) -> dict[str, object]:
        """Nominal (unscaled) parameters, one Table IV row set."""
        return {
            "config": self.name,
            "L1d": _fmt_size(self.l1d.size_bytes),
            "L1i": _fmt_size(self.l1i.size_bytes),
            "L2": _fmt_size(self.l2.size_bytes),
            "L3": _fmt_size(self.l3.size_bytes),
            "L4": _fmt_size(self.l4.size_bytes) if self.l4 else "none",
            "itlb": self.itlb_entries,
            "ROB": self.rob_size,
            "RS": self.rs_size,
            "issue_at_dispatch": "Yes" if self.issue_at_dispatch else "No",
            "branch_predictor": self.branch_predictor,
        }


def _fmt_size(n: int) -> str:
    if n % (1024 * 1024) == 0:
        return f"{n // (1024 * 1024)}M"
    if n % 1024 == 0:
        return f"{n // 1024}K"
    return str(n)
