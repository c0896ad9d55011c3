"""The roofline model [Williams et al., CACM'09].

The paper leans on the roofline model to explain every trend it observes
(§IV-A): raising crf or refs lowers *operational intensity* (computation
per byte of DRAM traffic), pushing the workload from the compute roof
onto the memory-bandwidth slope, which manifests as back-end/memory-bound
pipeline slots. This module computes operational intensity from a
simulated run and classifies it against a machine roofline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util import check_positive
from repro.uarch.simulator import SimReport

__all__ = ["RooflineModel", "RooflinePoint"]

_LINE_BYTES = 64


@dataclass(frozen=True)
class RooflinePoint:
    """One workload placed on the roofline."""

    operational_intensity: float  # ops per DRAM byte
    performance: float  # ops per cycle achieved
    bound: str  # "memory" or "compute"


@dataclass(frozen=True)
class RooflineModel:
    """A machine roof: peak ops/cycle and DRAM bytes/cycle."""

    peak_ops_per_cycle: float = 4.0
    peak_bytes_per_cycle: float = 8.0

    def __post_init__(self) -> None:
        check_positive("peak_ops_per_cycle", self.peak_ops_per_cycle)
        check_positive("peak_bytes_per_cycle", self.peak_bytes_per_cycle)

    @property
    def ridge_point(self) -> float:
        """Operational intensity where the two roofs meet."""
        return self.peak_ops_per_cycle / self.peak_bytes_per_cycle

    def classify(self, operational_intensity: float) -> str:
        return "memory" if operational_intensity < self.ridge_point else "compute"

    def place(self, report: SimReport) -> RooflinePoint:
        """Place a simulated run on this roofline.

        DRAM traffic is the simulated memory accesses (line granularity);
        ops are retired instructions.
        """
        mem_lines = report.extra.get("mem_lines", None)
        if mem_lines is None:
            # Fall back: misses at the last data level approximate DRAM lines.
            mem_lines = report.mpki["l3d"] * report.instructions / 1000.0
        dram_bytes = max(mem_lines * _LINE_BYTES, 1e-9)
        intensity = report.instructions / dram_bytes
        performance = report.ipc
        return RooflinePoint(
            operational_intensity=intensity,
            performance=performance,
            bound=self.classify(intensity),
        )
