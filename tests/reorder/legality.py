"""Goal-order legality checking (paper §VI-B-1).

"Every goal must make a legal call to its predicate. A reordering that
prevents this, instantiating a goal improperly, is rejected. We generate
a potential order by instantiating a clause head with the mode and
scanning the clause goal by goal, keeping track of the variables each
goal demands and instantiates."

This module provides exactly that scan, independent of the cost model,
as a test oracle: the search uses the cost model's equivalent
propagation (``CostModel.goal_stats`` returns None for an illegal call)
because it needs the statistics anyway.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.analysis.mode_inference import ModeInference
from repro.analysis.modes import Mode, VarState, bind_head_states
from repro.prolog.terms import Term

__all__ = ["order_is_legal", "propagate_order", "legal_orders"]


def propagate_order(
    goals: Sequence[Term],
    states: VarState,
    inference: ModeInference,
) -> bool:
    """Scan goals left to right, updating ``states``; False when some
    goal would be called in an illegal mode."""
    for goal in goals:
        if not inference.abstract_execute(goal, states):
            return False
    return True


def order_is_legal(
    head: Term,
    goals: Sequence[Term],
    input_mode: Mode,
    inference: ModeInference,
) -> bool:
    """Is this ordering of the clause body legal for the input mode?"""
    states: VarState = {}
    bind_head_states(head, input_mode, states)
    return propagate_order(goals, states, inference)


def legal_orders(
    head: Term,
    goals: Sequence[Term],
    input_mode: Mode,
    inference: ModeInference,
) -> List[Tuple[int, ...]]:
    """All legal permutations, as index tuples (test/diagnostic helper).

    Exponential — intended for short bodies and the test-suite; the
    search in :mod:`repro.reorder.goal_search` prunes instead.
    """
    import itertools

    result = []
    for permutation in itertools.permutations(range(len(goals))):
        ordered = [goals[i] for i in permutation]
        if order_is_legal(head, ordered, input_mode, inference):
            result.append(permutation)
    return result
