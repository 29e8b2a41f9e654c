"""Warren's reordering method (paper §I-E) — the baseline.

Warren [25] gave each goal "the factor by which the goal multiplies the
number of alternatives the system must consider": the predicate's tuple
count divided by the product of the domain sizes of its instantiated
argument positions. Conjunctions are ordered greedily, repeatedly
picking the goal with the smallest factor given the variables already
instantiated — cheapest tests first, generators last.

Differences from the Markov method that the ablation benchmark probes:
Warren's function "considers only the number of solutions, not their
costs", does not model backtracking, and was applied only to top-level
conjunctive queries; we additionally let it loose on clause bodies so
the two methods can be compared program-wide. Because Warren's setting
was pure database queries, the program-wide extension needs two minimal
safety rules from the paper's own §IV machinery to stay sound on real
programs: *semifixed* goals wait until their culprit variables are
bound, and clauses containing *fixed* (side-effecting) goals are left
in source order.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Tuple

from ..analysis.declarations import Declarations
from ..analysis.domains import DomainAnalysis
from ..prolog.database import Clause, Database, body_goals, goals_to_body
from ..prolog.terms import (
    Atom,
    Struct,
    Term,
    Var,
    deref,
    functor_indicator,
    term_variables,
)

__all__ = ["WarrenReorderer"]

Indicator = Tuple[str, int]


class WarrenReorderer:
    """Greedy goal ordering by Warren's domain-size cost function."""

    def __init__(self, database: Database, declarations: Optional[Declarations] = None):
        self.database = database
        self.declarations = declarations or Declarations.from_database(database)
        self.domains = DomainAnalysis(database, self.declarations)
        from ..analysis.callgraph import CallGraph
        from ..analysis.fixity import FixityAnalysis
        from ..analysis.semifixity import SemifixityAnalysis

        graph = CallGraph(database)
        self._fixity = FixityAnalysis(database, graph, self.declarations)
        # No declarations here: declared-mode pins are only sound when a
        # legality checker enforces the declared modes, and Warren's
        # greedy ordering has none — every culprit variable must wait.
        self._semifixity = SemifixityAnalysis(database, graph, None)

    # -- the cost function ------------------------------------------------

    def goal_factor(self, goal: Term, bound: Set[int]) -> float:
        """Warren's multiplying factor for ``goal`` given bound variables.

        An argument counts as instantiated when it contains no unbound
        variable. Builtins and control constructs are outside Warren's
        database model; they get factor 1.0 once their variables are
        bound (a test) and infinity before (never scheduled ahead of
        the goals that bind them — Warren's queries only contained
        database goals, so this is the minimal extension that keeps the
        baseline runnable on rules with arithmetic).
        """
        goal = deref(goal)
        if not isinstance(goal, (Atom, Struct)):
            return 1.0
        indicator = functor_indicator(goal)
        # A semifixed goal must not run before its culprit variables are
        # bound (its result would change, §IV-C).
        if any(
            id(v) not in bound
            for v in self._semifixity.culprit_variables(goal)
        ):
            return float("inf")
        if not self.database.defines(indicator):
            if all(id(v) in bound for v in term_variables(goal)):
                return 1.0
            return float("inf")
        tuples = self.domains.tuple_count(indicator)
        if tuples == 0:  # a rule predicate: use its clause count
            tuples = max(1, len(self.database.clauses(indicator)))
        factor = float(tuples)
        if isinstance(goal, Struct):
            for position, arg in enumerate(goal.args, start=1):
                if self._instantiated(arg, bound):
                    factor /= self.domains.domain_size(indicator, position)
        return factor

    @staticmethod
    def _instantiated(arg: Term, bound: Set[int]) -> bool:
        return all(id(v) in bound for v in term_variables(arg))

    # -- ordering ---------------------------------------------------------------

    def order_goals(
        self, goals: Sequence[Term], bound_vars: Optional[Iterable[Var]] = None
    ) -> List[Term]:
        """Greedy minimum-factor ordering of a conjunction."""
        bound: Set[int] = {id(v) for v in (bound_vars or ())}
        remaining = list(goals)
        ordered: List[Term] = []
        while remaining:
            best_index = min(
                range(len(remaining)),
                key=lambda i: (self.goal_factor(remaining[i], bound), i),
            )
            chosen = remaining.pop(best_index)
            ordered.append(chosen)
            for variable in term_variables(chosen):
                bound.add(id(variable))
        return ordered

    def reorder_query(self, query: Term) -> Term:
        """Reorder a top-level conjunctive query (Warren's original use)."""
        return goals_to_body(self.order_goals(body_goals(query)))

    def reorder_program(self, mode_assumption: str = "free") -> Database:
        """Reorder every clause body greedily (program-wide extension).

        ``mode_assumption`` controls which head variables count as bound
        when a body is ordered: ``"free"`` (queries arrive open) or
        ``"ground"`` (queries arrive fully instantiated).
        """
        output = self.database.empty_like()
        for indicator in self.database.predicates():
            for clause in self.database.clauses(indicator):
                goals = body_goals(clause.body)
                reorderable = not self._fixity.clause_is_fixed(
                    clause.body
                ) and all(
                    not isinstance(deref(g), Atom)
                    or deref(g).name not in ("!", "fail", "false")
                    for g in goals
                )
                if reorderable:
                    head_vars = (
                        term_variables(clause.head)
                        if mode_assumption == "ground"
                        else []
                    )
                    goals = self.order_goals(goals, head_vars)
                output.add_clause(Clause(clause.head, goals_to_body(goals)))
        output.directives = list(self.database.directives)
        output.tabled = set(self.database.tabled)
        return output
