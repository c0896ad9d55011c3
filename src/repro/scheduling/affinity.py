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

import math
from collections.abc import Sequence

import numpy as np

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
    score (``maximize``) or cost matrix, sorted by row.

    Deterministic: the pairs are a pure function of the matrix, so
    identical inputs always yield identical placements — in the batch
    scheduler and the service alike. Among equal-valued assignments,
    ``_TIE_EPS * (row * n_cols + col)`` per chosen cell prefers the one
    whose columns (wide matrix) or rows (tall matrix) have the lowest
    index sum. It adds the same constant to every perfect matching of
    a square matrix and to every matching over the same rows and
    columns, so there the solver's own search order decides: a constant
    3x3 gives ``[(0, 1), (1, 0), (2, 2)]`` to maximize and
    ``[(0, 2), (1, 0), (2, 1)]`` to minimize, not the identity.
    """
    n_rows, n_cols = matrix.shape
    tie = _TIE_EPS * (
        np.arange(n_rows)[:, None] * n_cols + np.arange(n_cols)[None, :]
    )
    rows, cols = _linear_sum_assignment(
        -(matrix - tie) if maximize else matrix + tie
    )
    return list(zip(rows, cols))


def _linear_sum_assignment(cost: np.ndarray) -> tuple[list[int], list[int]]:
    """Minimum-cost assignment ``(rows, cols)`` of a 2-D float cost matrix.

    A port of scipy's ``linear_sum_assignment`` (Crouse's shortest
    augmenting path, ``rectangular_lsap.cpp``) that keeps every step
    deciding a tie, so it returns scipy's answer bit for bit: the
    candidate columns are kept in reverse order, an equal-cost
    unassigned column ends the path, each reduced cost is summed as
    ``min_val + c[i][j] - u[i] - v[j]``, and a tall matrix is solved
    transposed and returned sorted by row. NaN or ``-inf`` entries, or
    a matrix with no finite-cost assignment, raise ``ValueError``.
    """
    n_rows, n_cols = cost.shape
    if n_rows == 0 or n_cols == 0:
        return [], []
    transpose = n_cols < n_rows
    if transpose:
        cost = cost.T
        n_rows, n_cols = n_cols, n_rows
    if np.isnan(cost).any() or np.isneginf(cost).any():
        raise ValueError("matrix contains invalid numeric entries")
    c = cost.tolist()
    u = [0.0] * n_rows
    v = [0.0] * n_cols
    path = [-1] * n_cols
    col4row = [-1] * n_rows
    row4col = [-1] * n_cols
    for cur_row in range(n_rows):
        # Shortest augmenting path from cur_row to an unassigned column.
        shortest = [math.inf] * n_cols
        remaining = list(range(n_cols - 1, -1, -1))
        seen_rows: list[int] = []
        seen_cols: list[int] = []
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            seen_rows.append(i)
            row, u_i = c[i], u[i]
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + row[j] - u_i - v[j]
                s = shortest[j]
                if r < s:
                    path[j] = i
                    shortest[j] = s = r
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest, index = s, it
            min_val = lowest
            if min_val == math.inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            seen_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        # Update the dual variables, then flip the path.
        u[cur_row] += min_val
        for i in seen_rows[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in seen_cols:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    if transpose:
        order = sorted(range(n_rows), key=col4row.__getitem__)
        return [col4row[k] for k in order], order
    return list(range(n_rows)), col4row
