"""Unit tests for the absorbing Markov chain analysis (Figs. 4–5)."""

import math
import random

import pytest

from repro.markov.chain import (
    all_solutions_analysis,
    all_solutions_matrix,
    clamp_probability,
    gaussian_solve,
    single_solution_analysis,
    single_solution_matrix,
)


def _rows_sum_to_one(matrix):
    return all(math.isclose(sum(row), 1.0) for row in matrix)


def _max_residual(matrix, x, rhs):
    """max |A·x − b| over the rows of a linear system."""
    return max(
        abs(math.fsum(a * v for a, v in zip(row, x)) - b)
        for row, b in zip(matrix, rhs)
    )


class TestMatrices:
    def test_single_solution_shape(self):
        matrix = single_solution_matrix([0.5, 0.5])
        assert len(matrix) == 4 and all(len(row) == 4 for row in matrix)
        # Rows sum to 1 (a stochastic matrix).
        assert _rows_sum_to_one(matrix)

    def test_single_solution_structure(self):
        p = [0.7, 0.4]
        matrix = single_solution_matrix(p)
        assert matrix[0][0] == 1.0 and matrix[1][1] == 1.0  # S, F absorbing
        assert matrix[2][1] == pytest.approx(0.3)  # g1 fails into F
        assert matrix[2][3] == pytest.approx(0.7)  # g1 succeeds into g2
        assert matrix[3][0] == pytest.approx(0.4)  # g2 succeeds into S
        assert matrix[3][2] == pytest.approx(0.6)  # g2 backtracks into g1

    def test_paper_fig4_layout_four_goals(self):
        # The paper's P_k has (1-p_a) from goal a into F, p_d from d into S.
        p = [0.9, 0.8, 0.7, 0.6]
        matrix = single_solution_matrix(p)
        assert matrix[2][1] == pytest.approx(0.1)
        assert matrix[5][0] == pytest.approx(0.6)

    def test_all_solutions_structure(self):
        p = [0.7, 0.4]
        matrix = all_solutions_matrix(p)
        assert len(matrix) == 4 and all(len(row) == 4 for row in matrix)
        assert matrix[0][0] == 1.0          # F absorbing
        assert matrix[3][2] == 1.0          # S returns to the last goal
        assert matrix[1][0] == pytest.approx(0.3)  # g1 fails into F
        assert _rows_sum_to_one(matrix)


class TestSingleSolutionAnalysis:
    def test_one_goal(self):
        result = single_solution_analysis([0.25], [4.0])
        assert result.p_success == pytest.approx(0.25)
        assert result.visits == (1.0,)
        assert result.expected_cost == pytest.approx(4.0)

    def test_two_deterministic_goals(self):
        result = single_solution_analysis([1.0, 1.0], [1.0, 2.0])
        assert result.p_success == pytest.approx(1.0)
        assert result.expected_cost == pytest.approx(3.0)

    def test_certain_failure(self):
        result = single_solution_analysis([0.0, 0.9], [1.0, 1.0])
        assert result.p_success == pytest.approx(0.0)
        assert result.visits[1] == pytest.approx(0.0)

    def test_backtracking_increases_visits(self):
        # g2 usually fails and bounces back into g1.
        result = single_solution_analysis([0.9, 0.1], [1.0, 1.0])
        assert result.visits[0] > 1.0

    def test_empty_body(self):
        result = single_solution_analysis([], [])
        assert result.p_success == 1.0
        assert result.expected_cost == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            single_solution_analysis([0.5], [1.0, 2.0])


class TestAllSolutionsAnalysis:
    def test_success_visits_are_expected_solutions(self):
        # With p_i = s/(1+s), v_S = prod of s_i.
        result = all_solutions_analysis([2 / 3, 1 / 2], [1.0, 1.0])
        assert result.success_visits == pytest.approx(2.0 * 1.0)

    def test_total_cost_positive(self):
        result = all_solutions_analysis([0.5, 0.5], [3.0, 5.0])
        assert result.total_cost > 0
        assert result.cost_per_solution == pytest.approx(
            result.total_cost / result.success_visits
        )

    def test_probability_one_clamped(self):
        result = all_solutions_analysis([1.0], [1.0])
        assert math.isfinite(result.total_cost)

    def test_empty(self):
        result = all_solutions_analysis([], [])
        assert result.success_visits == 1.0


class TestLinearAlgebra:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6, 7])
    def test_gaussian_residual(self, seed):
        # Seeded, diagonally dominant 5×5 systems.
        rng = random.Random(seed)
        matrix = [
            [rng.random() + (5.0 if i == j else 0.0) for j in range(5)]
            for i in range(5)
        ]
        rhs = [rng.random() for _ in range(5)]
        x = [row[0] for row in gaussian_solve(matrix, [[b] for b in rhs])]
        assert _max_residual(matrix, x, rhs) <= 1e-12

    def test_gaussian_singular_raises(self):
        with pytest.raises(ZeroDivisionError):
            gaussian_solve([[1.0, 1.0], [1.0, 1.0]], [[1.0], [2.0]])

    def test_analysis_visits_solve_the_chain(self):
        # The visits are the first row of N = (I − Q)^{-1}, that is the
        # solution of (I − Q)ᵀ x = e₁ with Q the goal-to-goal block.
        p, c = [0.6, 0.4, 0.8], [3.0, 5.0, 2.0]
        result = single_solution_analysis(p, c)
        transient = [row[2:] for row in single_solution_matrix(p)[2:]]
        system = [
            [(1.0 if i == j else 0.0) - transient[j][i] for j in range(3)]
            for i in range(3)
        ]
        assert _max_residual(system, result.visits, [1.0, 0.0, 0.0]) <= 1e-12


class TestClamp:
    def test_clamps(self):
        assert clamp_probability(1.5) < 1.0
        assert clamp_probability(-0.2) == 0.0
        assert clamp_probability(0.5) == 0.5
