"""Absorbing Markov chains for clause bodies (paper §VI-A, Figs. 4–5).

A clause body ``k :- g1, ..., gn`` becomes a chain whose states are the
goals plus absorbing success (S) and failure (F) states. In every goal
state the process moves forward with that goal's success probability
``p_i`` and backward with ``1 − p_i``; entering S from the last goal is
success; falling off the front is failure.

Two variants:

* **single-solution** (Fig. 4): S is absorbing — models finding one
  solution (a goal before a cut, or an interactive single answer);
* **all-solutions** (Fig. 5): S loops back to the last goal with
  probability 1 — models exhaustive backtracking.

From the transition matrix ``P`` partitioned into transient/absorbing
blocks, ``N = (I − Q)^{-1}`` gives the expected visit counts (first row,
since the process starts at the first goal) and ``N·R`` the absorption
probabilities — "textbook mathematics" [Kemeny & Snell]. The paper
suggests calling a C routine to build and invert the matrix;
:func:`gaussian_solve`, a pure-Python Gaussian elimination, plays that
role here. Matrices are lists of rows. The reorderer itself uses the
closed forms of :mod:`repro.markov.formulas`, which the tests check
against this matrix path.

Probabilities equal to 1 make the all-solutions chain non-absorbing
(a never-failing goal backtracks forever); callers should clamp, and
:func:`clamp_probability` provides the standard clamp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

__all__ = [
    "ChainResult",
    "AllSolutionsResult",
    "clamp_probability",
    "single_solution_matrix",
    "all_solutions_matrix",
    "single_solution_analysis",
    "all_solutions_analysis",
    "gaussian_solve",
]

#: A matrix as a list of rows.
Matrix = List[List[float]]

#: Default upper clamp for success probabilities (keeps chains absorbing).
P_MAX = 1.0 - 1e-9
#: Default lower clamp (keeps visit formulas finite).
P_MIN = 0.0


def clamp_probability(p: float, low: float = P_MIN, high: float = P_MAX) -> float:
    """Clamp a probability into the numerically safe open interval."""
    return min(high, max(low, p))


@dataclass(frozen=True)
class ChainResult:
    """Analysis of a single-solution chain."""

    #: Probability of absorption in S (the paper's p_body).
    p_success: float
    #: Expected visits to each goal state, starting from the first goal.
    visits: Tuple[float, ...]
    #: Expected total cost  Σ c_i · v_i  (the paper's c_single).
    expected_cost: float


@dataclass(frozen=True)
class AllSolutionsResult:
    """Analysis of an all-solutions chain."""

    #: Expected visits to each goal state.
    visits: Tuple[float, ...]
    #: Expected visits to the success state (number of solutions found).
    success_visits: float
    #: Expected total cost of enumerating every solution: Σ c_i · v_i.
    total_cost: float
    #: Expected cost per solution (the paper's c_multiple).
    cost_per_solution: float


def single_solution_matrix(probs: Sequence[float]) -> Matrix:
    """The full transition matrix of Fig. 4 (states: S, F, g1..gn)."""
    n = len(probs)
    size = n + 2
    matrix = [[0.0] * size for _ in range(size)]
    matrix[0][0] = 1.0  # S absorbing
    matrix[1][1] = 1.0  # F absorbing
    for i, p in enumerate(probs):
        row = matrix[2 + i]
        # Backward: to previous goal, or to F from the first goal.
        row[1 if i == 0 else 1 + i] = 1.0 - p
        # Forward: to next goal, or to S from the last goal.
        row[0 if i == n - 1 else 3 + i] = p
    return matrix


def all_solutions_matrix(probs: Sequence[float]) -> Matrix:
    """The full transition matrix of Fig. 5 (states: F, g1..gn, S)."""
    n = len(probs)
    size = n + 2
    matrix = [[0.0] * size for _ in range(size)]
    matrix[0][0] = 1.0  # F absorbing
    for i, p in enumerate(probs):
        row = matrix[1 + i]
        row[i] = 1.0 - p  # backward (row 1 backs into F)
        row[i + 2] = p    # forward (last goal into S)
    matrix[n + 1][n] = 1.0  # S returns to the last goal
    return matrix


def gaussian_solve(matrix: Matrix, rhs: Matrix) -> Matrix:
    """Solve ``matrix · X = rhs`` by Gaussian elimination with partial
    pivoting — the stand-in for the paper's external C routine."""
    n = len(matrix)
    width = len(rhs[0])
    # Build the augmented matrix.
    augmented = [list(row) + list(extra) for row, extra in zip(matrix, rhs)]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(augmented[r][col]))
        if abs(augmented[pivot_row][col]) < 1e-300:
            raise ZeroDivisionError("singular matrix in chain analysis")
        augmented[col], augmented[pivot_row] = augmented[pivot_row], augmented[col]
        pivot = augmented[col][col]
        augmented[col] = [value / pivot for value in augmented[col]]
        for row in range(n):
            if row != col and augmented[row][col] != 0.0:
                factor = augmented[row][col]
                augmented[row] = [
                    value - factor * pivot_value
                    for value, pivot_value in zip(augmented[row], augmented[col])
                ]
    return [row[n : n + width] for row in augmented]


def _first_visit_row(transient: Matrix) -> List[float]:
    """First row of ``N = (I − Q)^{-1}``: the expected visits starting
    from the first transient state, from ``(I − Q)ᵀ x = e₁``."""
    size = len(transient)
    system = [
        [(1.0 if i == j else 0.0) - transient[j][i] for j in range(size)]
        for i in range(size)
    ]
    unit = [[1.0 if i == 0 else 0.0] for i in range(size)]
    return [row[0] for row in gaussian_solve(system, unit)]


def single_solution_analysis(
    probs: Sequence[float], costs: Sequence[float]
) -> ChainResult:
    """Visits, success probability, and expected cost of the Fig. 4 chain."""
    if len(probs) != len(costs):
        raise ValueError("probs and costs must have equal length")
    n = len(probs)
    if n == 0:
        return ChainResult(p_success=1.0, visits=(), expected_cost=0.0)
    probs = [clamp_probability(p) for p in probs]
    goal_rows = single_solution_matrix(probs)[2:]
    visits = _first_visit_row([row[2:] for row in goal_rows])  # Q: goal to goal
    # Absorption in S from goal 1: (N R)[0][S], R the goal-to-{S, F} block.
    p_success = math.fsum(v * row[0] for v, row in zip(visits, goal_rows))
    return ChainResult(
        p_success=p_success,
        visits=tuple(visits),
        expected_cost=math.fsum(v * c for v, c in zip(visits, costs)),
    )


def all_solutions_analysis(
    probs: Sequence[float], costs: Sequence[float]
) -> AllSolutionsResult:
    """Visits and costs of the Fig. 5 chain (S transient, looping back)."""
    if len(probs) != len(costs):
        raise ValueError("probs and costs must have equal length")
    n = len(probs)
    if n == 0:
        return AllSolutionsResult(
            visits=(), success_visits=1.0, total_cost=0.0, cost_per_solution=0.0
        )
    probs = [clamp_probability(p, high=1.0 - 1e-9) for p in probs]
    # Goals plus S are transient.
    visits_all = _first_visit_row([row[1:] for row in all_solutions_matrix(probs)[1:]])
    goal_visits = visits_all[:n]
    success_visits = visits_all[n]
    total_cost = math.fsum(v * c for v, c in zip(goal_visits, costs))
    per_solution = total_cost / success_visits if success_visits > 0 else float("inf")
    return AllSolutionsResult(
        visits=tuple(goal_visits),
        success_visits=success_visits,
        total_cost=total_cost,
        cost_per_solution=per_solution,
    )
