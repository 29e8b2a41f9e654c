"""The Markov-chain cost model (paper §VI): absorbing chains over clause
bodies, closed-form formulas, and the whole-program cost propagation."""

from .chain import (
    AllSolutionsResult,
    ChainResult,
    all_solutions_analysis,
    all_solutions_matrix,
    clamp_probability,
    gaussian_solve,
    single_solution_analysis,
    single_solution_matrix,
)
from .clause_model import SequenceEvaluation, evaluate_sequence, sequence_cost
from .formulas import (
    all_solutions_cost_closed_form,
    all_solutions_visits_closed_form,
    expected_cost_until_failure,
    expected_cost_until_success,
    order_by_failure_ratio,
    order_by_success_ratio,
    single_solution_success_closed_form,
)
from .goal_stats import GoalStats
from .predicate_model import CostModel, head_match_probability

__all__ = [
    "AllSolutionsResult",
    "ChainResult",
    "CostModel",
    "GoalStats",
    "SequenceEvaluation",
    "all_solutions_analysis",
    "all_solutions_cost_closed_form",
    "all_solutions_matrix",
    "all_solutions_visits_closed_form",
    "clamp_probability",
    "evaluate_sequence",
    "expected_cost_until_failure",
    "expected_cost_until_success",
    "gaussian_solve",
    "head_match_probability",
    "order_by_failure_ratio",
    "order_by_success_ratio",
    "sequence_cost",
    "single_solution_analysis",
    "single_solution_matrix",
    "single_solution_success_closed_form",
]
