"""Mechanistic interval core model: assembles cycles from event statistics.

Follows the interval-simulation idea behind Sniper [Carlson et al.]: the
core dispatches at full width except during *intervals* opened by miss
events — branch mispredictions (pipeline refill), instruction supply
misses (front end), and long-latency data misses (back end, bounded by
the reorder window and MLP). Total cycles are the sum of the base
dispatch time plus the non-overlapped penalty of each interval class.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.trace.events import TraceStream
from repro.uarch.branch import BranchStats
from repro.uarch.config import MicroarchConfig
from repro.uarch.frontend import FrontendStalls
from repro.uarch.resources import MissProfile, ResourceStalls, compute_resource_stalls
from repro.uarch.topdown import TopdownBreakdown

__all__ = ["CoreReport", "run_core_model"]

#: Execution ports available for arithmetic uops.
_ALU_PORTS = 3.0
#: Extra port-occupancy weight of multiply/long-latency ops.
_MUL_WEIGHT = 2.0


@dataclass
class CoreReport:
    """Cycle total plus every component needed for reports."""

    cycles: float
    base_cycles: float
    fe_cycles: float
    bs_cycles: float
    mem_cycles: float
    core_cycles: float
    topdown: TopdownBreakdown
    resource_stalls: ResourceStalls


def run_core_model(
    *,
    stream: TraceStream,
    config: MicroarchConfig,
    frontend: FrontendStalls,
    branch: BranchStats,
    misses: MissProfile,
) -> CoreReport:
    """Assemble the cycle count and Top-down breakdown."""
    uops = stream.total_instructions
    width = float(config.dispatch_width)
    base_cycles = uops / width

    # Execution-port pressure: arithmetic demand beyond dispatch bandwidth
    # shows up as core-bound issue stalls.
    exec_cycles = (stream.instr.alu + _MUL_WEIGHT * stream.instr.mul) / _ALU_PORTS
    exec_extra = max(0.0, exec_cycles - base_cycles)

    stalls = compute_resource_stalls(misses, config)

    # The ROB-full shadow is the canonical memory-bound component; the SB
    # contributes the part of store pressure the ROB shadow does not hide.
    mem_cycles = stalls.rob + 0.3 * stalls.sb
    # RS pressure counts as core bound (issue logic starved for entries).
    core_cycles = exec_extra + 0.5 * stalls.rs

    # Front-end bubbles that occur while the back end is already stalled
    # are charged to the back end by the Top-down method (the slot is
    # back-end bound if the core could not have accepted a uop anyway).
    # This overlap is exactly why the paper observes front-end bound slots
    # *shrinking* as workloads become more memory bound (§IV-A, roofline
    # discussion): a stalled machine stops fetching.
    be_cycles = mem_cycles + core_cycles
    be_pressure = be_cycles / max(base_cycles + be_cycles, 1e-9)
    fe_cycles = frontend.total * (1.0 - be_pressure)
    bs_cycles = branch.mispredicts * config.branch_mispredict_penalty

    cycles = base_cycles + fe_cycles + bs_cycles + mem_cycles + core_cycles
    topdown = TopdownBreakdown.from_cycles(
        width=config.dispatch_width,
        uops=uops,
        base_cycles=base_cycles,
        fe_cycles=fe_cycles,
        bs_cycles=bs_cycles,
        mem_cycles=mem_cycles,
        core_cycles=core_cycles,
    )
    return CoreReport(
        cycles=cycles,
        base_cycles=base_cycles,
        fe_cycles=fe_cycles,
        bs_cycles=bs_cycles,
        mem_cycles=mem_cycles,
        core_cycles=core_cycles,
        topdown=topdown,
        resource_stalls=stalls,
    )
