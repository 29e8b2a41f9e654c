"""Figures 4–5 — the clause-body Markov chains of ``k :- a, b, c, d``.

Benchmarks the ``N = (I − Q)^{-1}`` analysis of both chain variants and
asserts the matrix and closed-form methods agree.
"""

import math

import pytest

from repro.experiments.figures import figures_4_5
from repro.markov.chain import all_solutions_analysis, single_solution_analysis
from repro.markov.formulas import (
    all_solutions_cost_closed_form,
    single_solution_success_closed_form,
)

PROBS = (0.9, 0.6, 0.7, 0.8)
COSTS = (5.0, 3.0, 4.0, 2.0)


def test_fig4_single_solution_chain(benchmark):
    result = benchmark(single_solution_analysis, PROBS, COSTS)
    assert result.p_success == pytest.approx(
        single_solution_success_closed_form(PROBS)
    )
    assert result.expected_cost > 0


def test_fig5_all_solutions_chain(benchmark):
    result = benchmark(all_solutions_analysis, PROBS, COSTS)
    total, _ = all_solutions_cost_closed_form(PROBS, COSTS)
    assert result.total_cost == pytest.approx(total)


def test_fig45_full_figure(benchmark):
    result = benchmark(figures_4_5, PROBS, COSTS)
    for key in ("single_matrix", "all_matrix"):
        assert all(math.isclose(sum(row), 1.0) for row in result[key])
    assert 0 < result["p_body"] < 1
