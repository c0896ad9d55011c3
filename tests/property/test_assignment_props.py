"""Property tests for the assignment solver (Hypothesis-driven):

- **scipy's answer, bit for bit**: ``affinity._linear_sum_assignment``
  returns exactly the ``(rows, cols)`` of
  ``scipy.optimize.linear_sum_assignment`` (the ``dev`` extra's oracle)
  on matrices from 0x0 to 8x8 — integer-valued with ties, constant,
  real-valued, and carrying placement's ``_INFEASIBLE`` entries — and
  ``solve_assignment`` returns what it returned when it called scipy.
  Placements, ties included, do not depend on which solver runs.
- **Invalid input fails alike**: a NaN or ``-inf`` entry, or a row no
  column can take, raises ``ValueError`` from both, with scipy's message.
- **Optimal**: without scipy, the chosen total equals the brute-force
  optimum over every one-to-one assignment, up to 6x6.
"""

from __future__ import annotations

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from repro.scheduling.affinity import (
    _TIE_EPS,
    _linear_sum_assignment,
    solve_assignment,
)
from repro.service.placement import _INFEASIBLE

_CELLS = {
    "ties": st.integers(-2, 2).map(float),
    "real": st.floats(-1e3, 1e3, allow_nan=False),
    "infeasible": st.sampled_from([0.0, 1.0, 2.0, _INFEASIBLE]),
}


@st.composite
def matrices(draw, max_side=8, min_side=0,
             kinds=("ties", "real", "infeasible", "constant")):
    """A float matrix of one cell kind, each side in [min_side, max_side]."""
    n_rows = draw(st.integers(min_side, max_side))
    n_cols = draw(st.integers(min_side, max_side))
    kind = draw(st.sampled_from(kinds))
    if kind == "constant":
        return np.full((n_rows, n_cols), float(draw(st.integers(-3, 3))))
    n = n_rows * n_cols
    cells = draw(st.lists(_CELLS[kind], min_size=n, max_size=n))
    return np.array(cells, dtype=float).reshape(n_rows, n_cols)


@st.composite
def invalid_matrices(draw):
    """A non-empty matrix with a NaN or ``-inf`` cell, or with an
    all-``inf`` row and no more rows than columns (so every row must be
    assigned)."""
    cost = draw(matrices(min_side=1))
    poison = draw(st.sampled_from(["nan", "-inf", "inf row"]))
    i = draw(st.integers(0, cost.shape[0] - 1))
    if poison == "inf row":
        cost = cost[: min(cost.shape), :]
        cost[min(i, cost.shape[0] - 1)] = np.inf
    else:
        cost[i, draw(st.integers(0, cost.shape[1] - 1))] = float(poison)
    return cost


def _scipy(cost):
    rows, cols = linear_sum_assignment(cost)
    return rows.tolist(), cols.tolist()


def _scipy_solve_assignment(matrix, *, maximize):
    """``solve_assignment`` as it was when it called scipy."""
    n_rows, n_cols = matrix.shape
    tie = _TIE_EPS * (
        np.arange(n_rows)[:, None] * n_cols + np.arange(n_cols)[None, :]
    )
    rows, cols = _scipy(-(matrix - tie) if maximize else matrix + tie)
    return list(zip(rows, cols))


def _outcome(solver, *args, **kwargs):
    try:
        return solver(*args, **kwargs)
    except ValueError as exc:
        return ("ValueError", str(exc))


class TestAgainstScipy:
    @settings(max_examples=400, deadline=None)
    @given(matrices())
    def test_port_returns_scipys_assignment(self, cost):
        assert _outcome(_linear_sum_assignment, cost) == _outcome(_scipy, cost)

    @settings(max_examples=200, deadline=None)
    @given(matrices(), st.booleans())
    def test_solve_assignment_unchanged(self, matrix, maximize):
        assert _outcome(solve_assignment, matrix, maximize=maximize) == _outcome(
            _scipy_solve_assignment, matrix, maximize=maximize
        )

    @settings(max_examples=200, deadline=None)
    @given(invalid_matrices())
    def test_invalid_input_raises_in_both(self, cost):
        with pytest.raises(ValueError) as scipy_error:
            linear_sum_assignment(cost)
        with pytest.raises(ValueError, match=re.escape(str(scipy_error.value))):
            _linear_sum_assignment(cost)


def _brute_force_optimum(matrix, *, maximize):
    n_rows, n_cols = matrix.shape
    if n_rows <= n_cols:
        totals = (
            sum(matrix[i, j] for i, j in enumerate(cols))
            for cols in itertools.permutations(range(n_cols), n_rows)
        )
    else:
        totals = (
            sum(matrix[i, j] for j, i in enumerate(rows))
            for rows in itertools.permutations(range(n_rows), n_cols)
        )
    return (max if maximize else min)(totals)


class TestOptimal:
    @settings(max_examples=150, deadline=None)
    @given(
        matrices(max_side=6, min_side=1, kinds=("ties", "constant")),
        st.booleans(),
    )
    def test_total_is_the_brute_force_optimum(self, matrix, maximize):
        pairs = solve_assignment(matrix, maximize=maximize)
        rows = [i for i, _ in pairs]
        cols = [j for _, j in pairs]
        assert len(pairs) == min(matrix.shape)
        assert rows == sorted(set(rows)) and len(set(cols)) == len(cols)
        total = sum(matrix[i, j] for i, j in pairs)
        assert total == _brute_force_optimum(matrix, maximize=maximize)
