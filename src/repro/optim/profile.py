"""Execution profiles: what ``perf record`` hands to AutoFDO.

An :class:`ExecutionProfile` aggregates, per kernel, how many dynamic
instructions it retired and how many times it was invoked, plus the
taken-bias of every recorded branch site. AutoFDO consumes it to rank
code by heat and to seed branch hints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import running_sum
from repro.trace.events import TraceStream

__all__ = ["ExecutionProfile", "collect_profile"]


@dataclass
class ExecutionProfile:
    """Aggregated sampled profile of one or more training runs."""

    kernel_instructions: dict[str, float] = field(default_factory=dict)
    kernel_calls: dict[str, int] = field(default_factory=dict)
    # site -> (taken_count, total_count)
    branch_bias: dict[str, tuple[float, float]] = field(default_factory=dict)
    total_instructions: float = 0.0
    n_runs: int = 0

    def merge_stream(self, stream: TraceStream) -> None:
        """Fold one training run's trace into the profile."""
        for kernel, mix in stream.instr_by_kernel.items():
            self.kernel_instructions[kernel] = (
                self.kernel_instructions.get(kernel, 0.0) + mix.total
            )
        for kernel, calls in stream.kernel_calls.items():
            self.kernel_calls[kernel] = self.kernel_calls.get(kernel, 0) + calls
        trace = stream.columns
        # Weighted taken / total counts per branch event, folded into each
        # site's running pair in trace order.
        bounds = trace.branch_offsets
        taken_before = np.concatenate(([0], np.cumsum(trace.branch_outcomes)))
        taken = (taken_before[bounds[1:]] - taken_before[bounds[:-1]]) * trace.branch_weights
        total = np.diff(bounds) * trace.branch_weights
        for sid, site in enumerate(trace.site_names):
            events = trace.branch_sites == sid
            t0, n0 = self.branch_bias.get(site, (0.0, 0.0))
            self.branch_bias[site] = (
                float(running_sum(t0, taken[events])[-1]),
                float(running_sum(n0, total[events])[-1]),
            )
        self.total_instructions += stream.total_instructions
        self.n_runs += 1

    def heat(self, kernel: str) -> float:
        """Fraction of profiled instructions spent in ``kernel``."""
        if self.total_instructions <= 0:
            return 0.0
        return self.kernel_instructions.get(kernel, 0.0) / self.total_instructions

    def hottest_first(self) -> list[str]:
        """Kernel names ordered by decreasing heat."""
        return sorted(
            self.kernel_instructions,
            key=lambda k: -self.kernel_instructions[k],
        )


def collect_profile(streams: list[TraceStream]) -> ExecutionProfile:
    """Build a profile from training-run traces (the ``perf`` step)."""
    if not streams:
        raise ValueError("collect_profile requires at least one trace")
    profile = ExecutionProfile()
    for stream in streams:
        profile.merge_stream(stream)
    return profile
