"""Characterization-driven task↔configuration affinity scoring.

The smart scheduler never sees the per-configuration runtimes (that would
be the oracle). Instead it profiles each task once on the *baseline*
configuration and scores how much each Table IV variant should help,
using the paper's own characterization logic: a task's dominant top-down
bottleneck points at the configuration built to relieve it —

- high front-end bound / L1i MPKI   → ``fe_op``  (bigger L1i + iTLB),
- high memory bound / L2-L3 MPKI    → ``be_op1`` (bigger data caches),
- high back-end resource stalls     → ``be_op2`` (bigger ROB/RS window),
- high bad speculation / branch MPKI → ``bs_op`` (TAGE predictor).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.profiling.counters import CounterSet

__all__ = ["affinity_matrix", "affinity_scores", "solve_assignment"]

#: Tie-break weight per matrix cell: far below any real score or cost
#: difference, so it only orders otherwise-equal assignments.
_TIE_EPS = 1e-9


def affinity_scores(counters: CounterSet) -> dict[str, float]:
    """Predicted relative benefit of each config for one profiled task.

    Scores are in arbitrary comparable units (bigger = better fit); each
    is the share of pipeline slots (plus a counter-based tiebreaker) that
    the configuration's extra resources attack.
    """
    # Counter tiebreakers are scaled to stay subordinate to slot shares.
    fe = counters.frontend_bound + 0.1 * counters.l1i_mpki
    be1 = counters.memory_bound + 0.1 * (counters.l2_mpki + counters.l3_mpki)
    be2 = counters.core_bound + 0.5 * counters.memory_bound + 0.01 * (
        counters.stall_rob_pki + counters.stall_rs_pki
    )
    bs = counters.bad_speculation + 0.1 * counters.branch_mpki
    return {"fe_op": fe, "be_op1": be1, "be_op2": be2, "bs_op": bs}


def affinity_matrix(
    counters: Sequence[CounterSet], config_names: Sequence[str]
) -> np.ndarray:
    """The (task x config) score matrix from one baseline counter set
    per task; a config :func:`affinity_scores` does not know scores 0."""
    score = np.zeros((len(counters), len(config_names)))
    for i, task_counters in enumerate(counters):
        scores = affinity_scores(task_counters)
        for j, name in enumerate(config_names):
            score[i, j] = scores.get(name, 0.0)
    return score


def solve_assignment(
    matrix: np.ndarray, *, maximize: bool
) -> list[tuple[int, int]]:
    """One-to-one (row, column) assignment over a possibly rectangular
    score (``maximize``) or cost matrix, by the Hungarian algorithm.

    Deterministic: among equal-valued assignments the lower row, then
    the lower column index wins, so identical inputs always yield
    identical placements — in the batch scheduler and the service alike.
    """
    n_rows, n_cols = matrix.shape
    tie = _TIE_EPS * (
        np.arange(n_rows)[:, None] * n_cols + np.arange(n_cols)[None, :]
    )
    rows, cols = linear_sum_assignment(
        -(matrix - tie) if maximize else matrix + tie
    )
    return list(zip(rows.tolist(), cols.tolist()))
