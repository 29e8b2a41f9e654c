"""Unfold/fold transformation (paper §VIII, after Tamaki & Sato [24]).

"Unfolding of goals (replacing them with the goals of the clauses of
the predicates they call) might greatly increase the possibilities for
reordering, especially when clauses of a program are short."

Unfolding a goal ``g`` in clause ``C`` against the ``k`` clauses of
``g``'s predicate produces ``k`` resolvents of ``C`` (one per callee
clause whose head unifies; heads that cannot unify contribute nothing,
so a goal with no matching clause deletes ``C`` outright). Solution
order is preserved: Prolog tried ``g``'s alternatives in callee clause
order, and the resolvents appear in that same order.

Safety gates (conservative):

* only top-level body goals are unfolded (never inside control
  constructs);
* the callee must be user-defined, non-recursive, and cut-free (a cut's
  scope would silently widen from the callee to the caller);
* clause growth is bounded (``max_resolvents`` per unfold,
  ``max_clauses`` per predicate).

Side-effecting callees *are* unfoldable — the side effect happens at
the same execution point — which is exactly why the paper suggests
unfolding "when clauses of a program ... have many side-effects": it
exposes the pure goals around the write for reordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..analysis.callgraph import CallGraph
from ..analysis.fixity import FixityAnalysis
from ..analysis.recursion import recursive_predicates
from ..prolog.database import Clause, Database, body_goals, goals_to_body
from ..prolog.terms import (
    Atom,
    Struct,
    Term,
    Var,
    deref,
    functor_indicator,
    rename_term,
)
from ..prolog.unify import Trail, unify
from .restrictions import _contains_cut

__all__ = ["UnfoldOptions", "UnfoldReport", "unfold_clause_goal", "unfold_program"]

Indicator = Tuple[str, int]


@dataclass
class UnfoldOptions:
    """Bounds on the unfold transformation."""

    #: How many sweeps over the program to make.
    rounds: int = 1
    #: Skip an unfold that would replace one clause by more than this.
    max_resolvents: int = 4
    #: Skip unfolding into predicates that already have this many clauses.
    max_clauses: int = 32
    #: Only unfold callees with at most this many clauses.
    max_callee_clauses: int = 4


@dataclass
class UnfoldReport:
    """What was unfolded."""

    unfolded: List[str]

    def __str__(self) -> str:
        return "\n".join(self.unfolded) if self.unfolded else "(nothing unfolded)"


def _callee_unfoldable(
    indicator: Indicator,
    database: Database,
    recursive: Set[Indicator],
    options: UnfoldOptions,
) -> bool:
    if not database.defines(indicator):
        return False
    if indicator in recursive:
        return False
    clauses = database.clauses(indicator)
    if not 1 <= len(clauses) <= options.max_callee_clauses:
        return False
    return not any(_contains_cut(clause.body) for clause in clauses)


def unfold_clause_goal(
    clause: Clause, goal_index: int, database: Database
) -> Optional[List[Clause]]:
    """All resolvents of ``clause`` on its ``goal_index``-th body goal.

    Returns None when the goal's predicate is undefined; an empty list
    when no callee head unifies (the clause can be deleted)."""
    goals = body_goals(clause.body)
    goal = deref(goals[goal_index])
    if not isinstance(goal, (Atom, Struct)):
        return None
    indicator = functor_indicator(goal)
    callee_clauses = database.clauses(indicator)
    if not database.defines(indicator):
        return None

    resolvents: List[Clause] = []
    trail = Trail()
    for callee in callee_clauses:
        mark = trail.mark()
        head, body = callee.rename()
        if unify(goal, head, trail):
            inline = [
                g
                for g in body_goals(body)
                if not (isinstance(deref(g), Atom) and deref(g).name == "true")
            ]
            new_goals = goals[:goal_index] + inline + goals[goal_index + 1 :]
            mapping: Dict[int, Var] = {}
            new_head = rename_term(clause.head, mapping)
            new_body = goals_to_body(
                [rename_term(g, mapping) for g in new_goals]
            )
            resolvents.append(Clause(new_head, new_body))
        trail.undo_to(mark)
    return resolvents


def unfold_program(
    database: Database, options: Optional[UnfoldOptions] = None
) -> Tuple[Database, UnfoldReport]:
    """Apply bounded unfolding sweeps; returns (new database, report)."""
    options = options or UnfoldOptions()
    report = UnfoldReport(unfolded=[])
    current = database.copy()
    for _ in range(max(0, options.rounds)):
        graph = CallGraph(current)
        recursive = recursive_predicates(graph)
        fixity = FixityAnalysis(current, graph)
        changed = False
        next_database = current.empty_like()
        next_database.directives = list(current.directives)
        next_database.tabled = set(current.tabled)
        next_database.warnings = list(current.warnings)
        for indicator in current.predicates():
            clauses = current.clauses(indicator)
            new_clauses: List[Clause] = []
            for clause in clauses:
                unfolded = _unfold_first_eligible(
                    clause, current, recursive, fixity, options, len(clauses),
                    report, indicator,
                )
                if unfolded is None:
                    new_clauses.append(clause)
                else:
                    changed = True
                    new_clauses.extend(unfolded)
            if not new_clauses and clauses:
                # Every clause resolved away (some goal matched no head):
                # the predicate must still *exist* and fail, not vanish
                # into an existence error.
                new_clauses.append(_failing_clause(indicator))
            for new_clause in new_clauses:
                next_database.add_clause(new_clause)
        current = next_database
        if not changed:
            break
    return current, report


def _failing_clause(indicator: Indicator) -> Clause:
    """``name(V1..Vn) :- fail.`` — an always-failing definition."""
    name, arity = indicator
    head: Term = (
        Struct(name, tuple(Var(f"V{i}") for i in range(arity)))
        if arity
        else Atom(name)
    )
    return Clause(head, Atom("fail"))


def _unfold_first_eligible(
    clause: Clause,
    database: Database,
    recursive: Set[Indicator],
    fixity: FixityAnalysis,
    options: UnfoldOptions,
    predicate_size: int,
    report: UnfoldReport,
    caller: Indicator,
) -> Optional[List[Clause]]:
    """Unfold the first eligible goal of a clause, or None if none is."""
    if predicate_size >= options.max_clauses:
        return None
    # A multi-resolvent unfold turns the goal's alternatives into caller
    # clause alternatives; earlier goals are then re-run per resolvent
    # and a cut in one resolvent prunes the rest. Safe only in
    # side-effect-free, cut-free caller clauses; single-resolvent
    # unfolds (pure inlining) are always safe.
    caller_sensitive = _contains_cut(clause.body) or fixity.clause_is_fixed(
        clause.body
    )
    goals = body_goals(clause.body)
    for index, goal in enumerate(goals):
        goal = deref(goal)
        if not isinstance(goal, (Atom, Struct)):
            continue
        try:
            indicator = functor_indicator(goal)
        except TypeError:
            continue
        if indicator == caller:
            continue  # direct self-call: never unfold
        if not _callee_unfoldable(indicator, database, recursive, options):
            continue
        resolvents = unfold_clause_goal(clause, index, database)
        if resolvents is None or len(resolvents) > options.max_resolvents:
            continue
        if caller_sensitive and len(resolvents) != 1:
            continue
        report.unfolded.append(
            f"{caller[0]}/{caller[1]}: unfolded {indicator[0]}/{indicator[1]} "
            f"({len(resolvents)} resolvents)"
        )
        return resolvents
    return None
