"""The flat counter record the experiments consume.

One :class:`CounterSet` captures everything a (VTune + perf) profiling
session of one transcode yields in the paper: top-down slot percentages,
cache and branch MPKI, and resource-stall counters, alongside the three
transcoding metrics (time, quality, size) from Figure 2's triangle.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.uarch.simulator import SimReport

__all__ = ["CounterSet"]


@dataclass(frozen=True)
class CounterSet:
    """Flattened profiling counters for one transcoding run."""

    # Transcoding metrics (the Fig. 2 triangle).
    time_seconds: float  # simulated transcode time (cycles / frequency)
    psnr_db: float
    bitrate_kbps: float
    # Top-down (% of pipeline slots).
    retiring: float
    bad_speculation: float
    frontend_bound: float
    backend_bound: float
    memory_bound: float
    core_bound: float
    # perf-style MPKI.
    branch_mpki: float
    l1d_mpki: float
    l2_mpki: float
    l3_mpki: float
    l1i_mpki: float
    itlb_mpki: float
    # Resource stalls (cycles per kilo instruction).
    stall_any_pki: float
    stall_rob_pki: float
    stall_rs_pki: float
    stall_sb_pki: float
    # Raw run facts.
    cycles: float
    instructions: float
    ipc: float

    @staticmethod
    def from_report(
        report: SimReport, *, psnr_db: float, bitrate_kbps: float
    ) -> "CounterSet":
        td = report.topdown
        return CounterSet(
            time_seconds=report.seconds,
            psnr_db=psnr_db,
            bitrate_kbps=bitrate_kbps,
            retiring=td.retiring,
            bad_speculation=td.bad_speculation,
            frontend_bound=td.frontend_bound,
            backend_bound=td.backend_bound,
            memory_bound=td.memory_bound,
            core_bound=td.core_bound,
            branch_mpki=report.mpki["branch"],
            l1d_mpki=report.mpki["l1d"],
            l2_mpki=report.mpki["l2d"],
            l3_mpki=report.mpki["l3d"],
            l1i_mpki=report.mpki["l1i"],
            itlb_mpki=report.mpki["itlb"],
            stall_any_pki=report.resource_stalls_pki["any"],
            stall_rob_pki=report.resource_stalls_pki["rob"],
            stall_rs_pki=report.resource_stalls_pki["rs"],
            stall_sb_pki=report.resource_stalls_pki["sb"],
            cycles=report.cycles,
            instructions=report.instructions,
            ipc=report.ipc,
        )

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def field_names() -> list[str]:
        return [f.name for f in fields(CounterSet)]

    @classmethod
    def _from_values(cls, values) -> "CounterSet":
        """``CounterSet(*values)`` for values already checked, in
        :meth:`field_names` order: fills ``__dict__`` at once instead of 22
        frozen ``object.__setattr__`` calls. The result cache's reader only."""
        counters = object.__new__(cls)
        counters.__dict__.update(zip(_FIELD_NAMES, values))
        return counters


_FIELD_NAMES = tuple(CounterSet.field_names())
