"""The paper's worked figures, regenerated exactly.

* Fig. 1 — reordering a predicate's clauses: p = (.7, .8, .5, .9),
  c = (100, 80, 100, 40); expected single-solution cost 130.24 before,
  49.64 after ordering by decreasing p/c.
* Fig. 2 — reordering a clause's goals: q = (.8, .1, .3, .6),
  c = (70, 100, 100, 60); expected failure cost 98.928 before, 78.968
  after ordering by decreasing q/c.
* Figs. 4–5 — the Markov chains of ``k :- a, b, c, d``: the transition
  matrices in the paper's state layout and the derived quantities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..markov.chain import (
    all_solutions_analysis,
    all_solutions_matrix,
    single_solution_analysis,
    single_solution_matrix,
)
from ..markov.formulas import (
    expected_cost_until_failure,
    expected_cost_until_success,
    order_by_failure_ratio,
    order_by_success_ratio,
)

__all__ = ["Figure1Result", "Figure2Result", "figure1", "figure2", "figures_4_5"]

#: Fig. 1 inputs (clauses): success probabilities and costs.
FIG1_PROBS = (0.7, 0.8, 0.5, 0.9)
FIG1_COSTS = (100.0, 80.0, 100.0, 40.0)

#: Fig. 2 inputs (goals): failure probabilities and costs.
FIG2_FAIL_PROBS = (0.8, 0.1, 0.3, 0.6)
FIG2_COSTS = (70.0, 100.0, 100.0, 60.0)


@dataclass
class Figure1Result:
    original_cost: float        # paper: 130.24
    reordered_cost: float       # paper: 49.64
    order: List[int]            # clause indices, best first

    def format(self) -> str:
        """Human-readable summary with the paper's reference values."""
        return (
            "Figure 1 - reordering a predicate (expected single-solution cost)\n"
            f"  original order : {self.original_cost:.2f}   (paper: 130.24)\n"
            f"  p/c order {self.order}: {self.reordered_cost:.2f}   (paper: 49.64)"
        )


@dataclass
class Figure2Result:
    original_cost: float        # paper: 98.928
    reordered_cost: float       # paper: 78.968
    order: List[int]            # goal indices, best first

    def format(self) -> str:
        """Human-readable summary with the paper's reference values."""
        return (
            "Figure 2 - reordering a clause (expected cost of a failure)\n"
            f"  original order : {self.original_cost:.3f}   (paper: 98.928)\n"
            f"  q/c order {self.order}: {self.reordered_cost:.3f}   (paper: 78.968)"
        )


def figure1() -> Figure1Result:
    """Reproduce Fig. 1's 130.24 → 49.64 clause-reordering example."""
    order = order_by_success_ratio(FIG1_PROBS, FIG1_COSTS)
    return Figure1Result(
        original_cost=expected_cost_until_success(FIG1_PROBS, FIG1_COSTS),
        reordered_cost=expected_cost_until_success(
            [FIG1_PROBS[i] for i in order], [FIG1_COSTS[i] for i in order]
        ),
        order=order,
    )


def figure2() -> Figure2Result:
    """Reproduce Fig. 2's 98.928 → 78.968 goal-reordering example."""
    order = order_by_failure_ratio(FIG2_FAIL_PROBS, FIG2_COSTS)
    return Figure2Result(
        original_cost=expected_cost_until_failure(FIG2_FAIL_PROBS, FIG2_COSTS),
        reordered_cost=expected_cost_until_failure(
            [FIG2_FAIL_PROBS[i] for i in order], [FIG2_COSTS[i] for i in order]
        ),
        order=order,
    )


def figures_4_5(
    probs: Tuple[float, ...] = (0.9, 0.6, 0.7, 0.8),
    costs: Tuple[float, ...] = (5.0, 3.0, 4.0, 2.0),
) -> Dict[str, object]:
    """The Fig. 4/Fig. 5 chains of ``k :- a, b, c, d`` for concrete
    probabilities: the transition matrices (lists of rows in the paper's
    state layout) and the derived visit counts / costs from
    ``N = (I − Q)^{-1}``."""
    single = single_solution_analysis(probs, costs)
    multiple = all_solutions_analysis(probs, costs)
    return {
        "single_matrix": single_solution_matrix(probs),
        "all_matrix": all_solutions_matrix(probs),
        "p_body": single.p_success,
        "single_visits": single.visits,
        "c_single": single.expected_cost,
        "all_visits": multiple.visits,
        "v_success": multiple.success_visits,
        "c_multiple": multiple.cost_per_solution,
    }
