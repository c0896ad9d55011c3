"""Analytic instruction-cache and iTLB model.

The encoder's per-macroblock kernel sequence is almost perfectly cyclic.
An exact LRU simulation of a cyclic working set slightly larger than the
cache produces a 100%-miss cliff — a well-known LRU pathology that real
front ends do not exhibit thanks to next-line prefetch, partial-set
residency, and sequence variation. Instead we use the classic working-set
approximation: the probability that a kernel's lines were evicted since
its previous invocation decays exponentially with the volume of other
code fetched in between::

    P(miss) = 1 - exp(-intervening_lines / (capacity_lines * retention))

``retention`` absorbs associativity and prefetch effects; ``prefetch``
further scales the resulting misses (sequential line prefetch hides about
half of the remaining ones). The same model with page-granularity
footprints serves the iTLB. The model is smooth in both the cache size
(the ``fe_op`` configuration doubles L1i and iTLB) and the layout's fetch
footprints (AutoFDO shrinks them), which is exactly the sensitivity the
experiments need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro._util import running_sum
from repro.trace.events import KernelReuse, TraceColumns
from repro.trace.program import Program

__all__ = ["AnalyticICache", "ICacheStats"]

#: Effective retention multiplier over raw capacity (assoc + prefetch locality).
_RETENTION = 8.0
#: Fraction of predicted misses not hidden by the next-line prefetcher.
_PREFETCH_RESIDUE = 0.5
#: Code-dispersion factor: each kernel family's variants are scattered, so
#: the page footprint is larger than lines/64 would suggest.
_PAGE_DISPERSION = 2.0
_LINES_PER_PAGE = 4096 // 64


@dataclass
class ICacheStats:
    """Weighted miss totals for the instruction side."""

    l1i_misses: float = 0.0
    l2i_misses: float = 0.0
    l3i_misses: float = 0.0
    itlb_misses: float = 0.0
    fetch_lines: float = 0.0  # total lines fetched (weighted)


def _total(terms: np.ndarray) -> float:
    return float(running_sum(0.0, terms)[-1])


def _miss_prob(reuse: KernelReuse, capacity: float) -> np.ndarray:
    """Per kernel event, the probability its code was evicted since the
    kernel last ran: compulsory the first time, else the working-set
    decay over the intervening fetch volume. ``math.exp`` once per
    distinct gap, so every value is the scalar model's."""
    decay = [1.0 - math.exp(-gap / capacity) for gap in reuse.gaps.tolist()]
    prob = np.array(decay)[reuse.inverse]
    prob[reuse.first] = 1.0
    return prob


class AnalyticICache:
    """Reuse-distance front-end model over kernel invocations."""

    def __init__(
        self,
        program: Program,
        *,
        l1i_lines: int,
        l2i_lines: int,
        l3i_lines: int,
        itlb_entries: int,
    ) -> None:
        self.program = program
        self._caps = (
            max(l1i_lines, 1) * _RETENTION,
            max(l2i_lines, 1) * _RETENTION,
            max(l3i_lines, 1) * _RETENTION,
        )
        self._itlb_cap = max(itlb_entries, 1) * _RETENTION

    def run(self, trace: TraceColumns) -> ICacheStats:
        """Account every (weighted) kernel invocation of ``trace``, in order.

        A fetch clock advances by the kernel's footprint per invocation
        and each kernel is stamped *after* its own fetches, so a
        back-to-back re-invocation sees zero intervening code (its lines
        are still resident). The gaps depend on the trace and the layout
        only and are cached on ``trace``; the miss arithmetic below runs
        per call.
        """
        fetch = self.program.layout.fetch_line_addrs
        lines = tuple(float(len(fetch[name])) for name in trace.kernel_names)
        pages = tuple(f / _LINES_PER_PAGE * _PAGE_DISPERSION for f in lines)
        ids, weight = trace.kernel_ids, trace.kernel_weights
        footprint = np.array(lines)[ids]

        line_reuse = trace.kernel_reuse(lines)
        l1, l2, l3 = (_miss_prob(line_reuse, cap) for cap in self._caps)
        # Deeper levels only see what the shallower level missed.
        missed = footprint * l1
        l1i = missed * _PREFETCH_RESIDUE * weight
        missed = missed * l2
        l2i = missed * _PREFETCH_RESIDUE * weight
        l3i = missed * l3 * _PREFETCH_RESIDUE * weight
        tlb = _miss_prob(trace.kernel_reuse(pages), self._itlb_cap)
        return ICacheStats(
            l1i_misses=_total(l1i),
            l2i_misses=_total(l2i),
            l3i_misses=_total(l3i),
            itlb_misses=_total(np.array(pages)[ids] * tlb * weight),
            fetch_lines=_total(footprint * weight),
        )
