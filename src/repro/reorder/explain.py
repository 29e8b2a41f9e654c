"""Explaining reordering decisions.

The paper's Fig. 3 system "informs the programmer"; this module goes a
step further and shows the *evidence*: for a predicate and calling
mode, every candidate order of each mobile block with its Markov-chain
cost estimate, which candidates are illegal (and stay unranked), and
which order wins. This is the debugging/tuning view a user of the
system needs when the model's numbers surprise them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..analysis.modes import Mode, VarState, bind_head_states, mode_str
from ..prolog.database import Clause
from ..prolog.writer import term_to_string
from .goal_search import find_best_order
from .restrictions import order_constraints, partition_body
from .system import Reorderer

__all__ = ["OrderCandidate", "BlockExplanation", "ClauseExplanation", "explain_predicate"]

Indicator = Tuple[str, int]


@dataclass
class OrderCandidate:
    """One permutation of a block with its model evaluation."""

    order: Tuple[int, ...]
    goals_text: str
    legal: bool
    total_cost: Optional[float] = None
    single_cost: Optional[float] = None
    solutions: Optional[float] = None
    chosen: bool = False
    violates_constraints: bool = False

    def format(self) -> str:
        """One candidate line: marker, goals, verdict."""
        marker = ">>" if self.chosen else "  "
        if self.violates_constraints:
            verdict = "blocked by semifixity constraints"
        elif not self.legal:
            verdict = "ILLEGAL (mode violation)"
        else:
            verdict = (
                f"all-solutions cost {self.total_cost:10.2f}   "
                f"solutions {self.solutions:8.2f}"
            )
        return f"{marker} {self.goals_text:<60} {verdict}"


@dataclass
class BlockExplanation:
    """All candidates of one block (or the reason it was skipped)."""

    mobile: bool
    multi_solution: bool
    goals_text: str
    candidates: List[OrderCandidate] = field(default_factory=list)
    note: str = ""

    def format(self) -> str:
        """The block header plus its candidate lines."""
        if not self.mobile:
            return f"  [immobile] {self.goals_text}"
        lines = [f"  [mobile{'' if self.multi_solution else ', one-solution'}] "
                 f"{self.goals_text}"]
        if self.note:
            lines.append(f"    {self.note}")
        for candidate in self.candidates:
            lines.append("    " + candidate.format())
        return "\n".join(lines)


@dataclass
class ClauseExplanation:
    """The block decomposition and candidates of one clause."""

    index: int
    head_text: str
    blocks: List[BlockExplanation]

    def format(self) -> str:
        """The clause header plus its block explanations."""
        lines = [f"clause {self.index + 1}: {self.head_text}"]
        for block in self.blocks:
            lines.append(block.format())
        return "\n".join(lines)


def explain_predicate(
    reorderer: Reorderer,
    indicator: Indicator,
    mode: Mode,
    max_orders: int = 24,
) -> str:
    """A textual explanation of every ordering decision for one
    (predicate, mode)."""
    clauses = reorderer.database.clauses(indicator)
    if not clauses:
        return f"{indicator[0]}/{indicator[1]} is not defined"
    if not reorderer.modes.is_legal(indicator, mode):
        return (
            f"{indicator[0]}/{indicator[1]} has no legal behaviour in mode "
            f"{mode_str(mode)}"
        )
    sections = [
        f"{indicator[0]}/{indicator[1]} in mode {mode_str(mode)}",
        "=" * 50,
    ]
    for clause_index, clause in enumerate(clauses):
        explanation = _explain_clause(
            reorderer, indicator, clause, clause_index, mode, max_orders
        )
        sections.append(explanation.format())
    return "\n".join(sections)


def _explain_clause(
    reorderer: Reorderer,
    indicator: Indicator,
    clause: Clause,
    clause_index: int,
    mode: Mode,
    max_orders: int,
) -> ClauseExplanation:
    states: VarState = {}
    bind_head_states(clause.head, mode, states)
    partition = partition_body(clause.body, reorderer.fixity)
    blocks: List[BlockExplanation] = []
    for block in partition.blocks:
        goals_text = ", ".join(term_to_string(g) for g in block.goals)
        if not block.mobile or len(block) <= 1:
            reorderer.model.evaluate_goals(block.goals, states)
            blocks.append(
                BlockExplanation(
                    mobile=False, multi_solution=block.multi_solution,
                    goals_text=goals_text,
                )
            )
            continue
        explanation = BlockExplanation(
            mobile=True, multi_solution=block.multi_solution,
            goals_text=goals_text,
        )
        constraints = order_constraints(
            block.goals, reorderer.semifixity, states
        )
        permutations = list(
            itertools.permutations(range(len(block.goals)))
        )
        if len(permutations) > max_orders:
            explanation.note = (
                f"{len(permutations)} permutations; showing the chosen "
                f"order only (A* search territory)"
            )
            permutations = []
        best = find_best_order(
            block.goals, dict(states), reorderer.model, constraints,
            multi_solution=block.multi_solution,
            exhaustive_limit=reorderer.options.exhaustive_limit,
        )
        chosen_order = best.order if best is not None else tuple(
            range(len(block.goals))
        )
        shown = permutations or [chosen_order]
        for permutation in shown:
            ordered = [block.goals[i] for i in permutation]
            candidate = OrderCandidate(
                order=permutation,
                goals_text=", ".join(term_to_string(g) for g in ordered),
                legal=False,
                chosen=permutation == chosen_order,
            )
            position = {g: r for r, g in enumerate(permutation)}
            if any(position[a] >= position[b] for a, b in constraints):
                candidate.violates_constraints = True
                explanation.candidates.append(candidate)
                continue
            evaluation = reorderer.model.evaluate_goals(ordered, dict(states))
            if evaluation is not None:
                candidate.legal = True
                candidate.total_cost = evaluation.total_cost
                candidate.single_cost = evaluation.single_cost
                candidate.solutions = evaluation.solutions
            explanation.candidates.append(candidate)
        explanation.candidates.sort(
            key=lambda c: (
                not c.legal,
                c.total_cost if c.total_cost is not None else float("inf"),
            )
        )
        blocks.append(explanation)
        # Advance states along the chosen order.
        if best is not None:
            states.clear()
            states.update(best.states)
        else:
            reorderer.model.evaluate_goals(block.goals, states)
    return ClauseExplanation(
        index=clause_index,
        head_text=term_to_string(clause.head),
        blocks=blocks,
    )
