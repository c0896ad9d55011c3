"""The simulator: trace stream in, full counter report out.

Reads the trace's columns (:class:`~repro.trace.events.TraceColumns`),
never its event objects — the kernel-id column into the analytic
instruction-side model (i-cache levels and iTLB), the data addresses
through the batched data-side hierarchy replay one window of memory
events at a time (with separate load/store miss accounting for the
store-buffer model), each branch site's outcome sequence into the
configured predictor — then runs the interval core model to assemble
cycles, the Top-down breakdown, MPKI, and resource-stall counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs import session as obs
from repro.resilience.faults import fault_point
from repro.trace.events import TraceStream
from repro.trace.program import Program
from repro.uarch.branch import BranchModel, BranchStats
from repro.uarch.cache import REPLAY_WINDOW_ADDRS, HierarchyReplay
from repro.uarch.config import MicroarchConfig
from repro.uarch.core import CoreReport, run_core_model
from repro.uarch.frontend import compute_frontend_stalls
from repro.uarch.icache import AnalyticICache
from repro.uarch.resources import MissProfile
from repro.uarch.topdown import TopdownBreakdown

__all__ = ["SimReport", "simulate"]

DEFAULT_FREQ_HZ = 3.5e9  # the paper's 3.5 GHz Xeon E3


@dataclass
class SimReport:
    """Everything the profiling layer and experiments consume."""

    config_name: str
    cycles: float
    instructions: float
    seconds: float
    topdown: TopdownBreakdown
    mpki: dict[str, float]
    resource_stalls_pki: dict[str, float]
    branch: BranchStats
    core: CoreReport
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


def simulate(
    stream: TraceStream,
    program: Program,
    config: MicroarchConfig,
    *,
    freq_hz: float = DEFAULT_FREQ_HZ,
) -> SimReport:
    """Simulate one trace on one configuration, clocked at ``freq_hz``:
    the ``sim.run`` fault point, then :func:`_simulate` in a ``simulate``
    span."""
    if freq_hz <= 0:
        raise ValueError("freq_hz must be positive")
    fault_point("sim.run", detail=config.name)
    with obs.span("simulate", config=config.name, n_events=stream.columns.n_events):
        return _simulate(stream, program, config, freq_hz)


def _simulate(
    stream: TraceStream, program: Program, config: MicroarchConfig, freq_hz: float
) -> SimReport:
    """The model steps and the report they assemble."""
    trace = stream.columns

    # Instruction side: analytic reuse-distance model over the code
    # layout's fetch footprints; never capacity-scaled (code footprint
    # is resolution independent).
    icache = AnalyticICache(
        program,
        l1i_lines=config.l1i.size_bytes // config.l1i.line_bytes,
        l2i_lines=config.l2.size_bytes // config.l2.line_bytes,
        l3i_lines=config.l3.size_bytes // config.l3.line_bytes,
        itlb_entries=config.itlb_entries,
    ).run(trace)

    # Data side: capacity-scaled for proxy workloads. L1 runs each window
    # as it arrives; a lower level runs the misses it holds once they fill
    # a window, and the window that ends the trace runs the rest, inside
    # that window's span. Windows bound the replay's temporaries and give
    # long traces a sequence of timed ``simulate.window`` spans instead of
    # one opaque block.
    dcache = HierarchyReplay(config.effective_data_levels())
    for index, window in enumerate(trace.windows(REPLAY_WINDOW_ADDRS)):
        with obs.span("simulate.window", index=index, events=window.n_events):
            if window.mem_hi > window.mem_lo:
                with obs.span(
                    "simulate.dcache", config=config.name, lines=window.n_addrs
                ):
                    dcache.replay(trace, window.mem_lo, window.mem_hi)

    predictor = BranchModel(config.branch_predictor)
    for site, outcomes, weight in trace.site_outcomes:
        predictor.record(site, outcomes, weight)
    load_misses, store_misses = dcache.load_misses, dcache.store_misses
    load_mem, store_mem = dcache.load_mem, dcache.store_mem

    with obs.span("simulate.core_model", config=config.name):
        branch = predictor.evaluate(
            total_branches=stream.total_branches,
            branch_hints=program.layout.branch_hints,
        )
        frontend = compute_frontend_stalls(
            stream=stream,
            program=program,
            config=config,
            l1i_misses=icache.l1i_misses,
            l2i_misses=icache.l2i_misses,
            l3i_misses=icache.l3i_misses,
            itlb_misses=icache.itlb_misses,
        )
        has_l4 = config.l4 is not None
        misses = MissProfile(
            load_l1=load_misses[0],
            load_l2=load_misses[1],
            load_l3=load_misses[2],
            load_l4=load_misses[3] if has_l4 else 0.0,
            load_mem=load_mem,
            store_l1=store_misses[0],
            store_l2=store_misses[1],
            store_l3=store_misses[2],
            store_l4=store_misses[3] if has_l4 else 0.0,
            store_mem=store_mem,
        )
        core = run_core_model(
            stream=stream,
            config=config,
            frontend=frontend,
            branch=branch,
            misses=misses,
        )

    # Second-level front-end attribution (paper §IV-A1: FE-bound slots
    # are mostly MITE/DSB, i.e. decode supply, plus i-cache misses).
    fe_total = max(frontend.total, 1e-12)
    fe_breakdown = {
        "icache_frac": frontend.icache / fe_total,
        "itlb_frac": frontend.itlb / fe_total,
        "decode_frac": frontend.decode / fe_total,  # MITE/DSB component
    }

    instructions = stream.total_instructions
    kilo = max(instructions / 1000.0, 1e-12)
    mpki = {
        "l1d": (load_misses[0] + store_misses[0]) / kilo,
        "l2d": (load_misses[1] + store_misses[1]) / kilo,
        "l3d": (load_misses[2] + store_misses[2]) / kilo,
        "l1i": icache.l1i_misses / kilo,
        "l2i": icache.l2i_misses / kilo,
        "l3i": icache.l3i_misses / kilo,
        "itlb": icache.itlb_misses / kilo,
        "branch": branch.mispredicts / kilo,
    }
    stalls = core.resource_stalls
    resource_pki = {
        "any": stalls.any / kilo,
        "rob": stalls.rob / kilo,
        "rs": stalls.rs / kilo,
        "sb": stalls.sb / kilo,
    }

    tel = obs.current()
    if tel is not None:
        m = tel.metrics
        m.counter("sim.runs").inc()
        m.counter("sim.events.kernel").inc(trace.n_kernel)
        m.counter("sim.events.memory").inc(trace.n_memory)
        m.counter("sim.events.branch").inc(trace.n_branch)
        m.counter("sim.instructions").inc(instructions)
        m.counter("sim.cycles").inc(core.cycles)
        m.counter("sim.branch.mispredicts").inc(branch.mispredicts)
        m.counter("sim.dcache.l1_misses").inc(
            load_misses[0] + store_misses[0]
        )
        m.counter("sim.dcache.l2_misses").inc(
            load_misses[1] + store_misses[1]
        )
        m.counter("sim.dcache.l3_misses").inc(
            load_misses[2] + store_misses[2]
        )
        m.counter("sim.dcache.mem_accesses").inc(load_mem + store_mem)
        m.counter("sim.icache.l1i_misses").inc(icache.l1i_misses)
        m.counter("sim.icache.itlb_misses").inc(icache.itlb_misses)

    return SimReport(
        config_name=config.name,
        cycles=core.cycles,
        instructions=instructions,
        seconds=core.cycles / freq_hz,
        topdown=core.topdown,
        mpki=mpki,
        resource_stalls_pki=resource_pki,
        branch=branch,
        core=core,
        extra={
            "fe_cycles": core.fe_cycles,
            "bs_cycles": core.bs_cycles,
            "mem_cycles": core.mem_cycles,
            "core_cycles": core.core_cycles,
            "itlb_misses": icache.itlb_misses,
            # DRAM lines transferred (for roofline operational intensity).
            "mem_lines": load_mem + store_mem,
            **{f"fe_{k}": v for k, v in fe_breakdown.items()},
        },
    )

