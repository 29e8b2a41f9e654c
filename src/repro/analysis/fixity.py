"""Fixity analysis (paper §IV-B).

A goal that calls a side-effecting builtin is *fixed*: it cannot be
moved within its clause, its clause cannot be moved within its
predicate, and — because "predicates are responsible for the actions of
their descendants" — every ancestor predicate is fixed too. We compute
the fixed set by propagating side-effects up the call graph to a fixed
point (equivalent to the paper's top-down scan with an ancestor list,
but immune to cycles).

The result object also answers the finer-grained questions the
reorderer asks: is this particular *goal term* fixed (i.e. might its
execution produce a side effect)?
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from ..prolog.builtins import BUILTINS
from ..prolog.database import Database
from ..prolog.terms import Term, functor_indicator
from .callgraph import CallGraph, iter_subgoal_indicators
from .declarations import Declarations

__all__ = ["side_effect_builtins", "FixityAnalysis"]

Indicator = Tuple[str, int]


def side_effect_builtins() -> Set[Indicator]:
    """Indicators of every registered side-effecting builtin."""
    return {
        indicator
        for indicator, registered in BUILTINS.items()
        if registered.side_effect
    }


class FixityAnalysis:
    """The set of fixed predicates of a program."""

    def __init__(
        self,
        database: Database,
        callgraph: Optional[CallGraph] = None,
        declarations: Optional[Declarations] = None,
    ):
        self.database = database
        self.callgraph = callgraph or CallGraph(database)
        self.declarations = declarations
        self._fixed = self._compute()

    def _compute(self) -> Set[Indicator]:
        fixed: Set[Indicator] = set(side_effect_builtins())
        if self.declarations is not None:
            fixed |= set(self.declarations.fixed)
        # Propagate to callers until no change (worklist over the
        # reversed call graph).
        worklist = [
            indicator
            for indicator in fixed
            if indicator in self.callgraph.callers
        ]
        while worklist:
            contaminated = worklist.pop()
            for caller in self.callgraph.called_by(contaminated):
                if caller not in fixed:
                    fixed.add(caller)
                    worklist.append(caller)
        return fixed

    @property
    def fixed_predicates(self) -> Set[Indicator]:
        """Fixed *user* predicates (builtins excluded)."""
        return {
            indicator
            for indicator in self._fixed
            if self.database.defines(indicator)
        }

    def is_fixed(self, indicator: Indicator) -> bool:
        """Is this predicate (builtin or user) fixed?"""
        return indicator in self._fixed

    def goal_is_fixed(self, goal: Term) -> bool:
        """Might executing this goal produce a side-effect?

        True when the goal's own predicate is fixed, or (for control
        constructs and meta-calls) when any reachable subgoal is.
        """
        try:
            indicator = functor_indicator(goal)
        except TypeError:
            return True  # unknown shape: be conservative
        if self.is_fixed(indicator):
            return True
        # Look through control constructs: a disjunction with a write
        # inside is itself fixed.
        for sub in iter_subgoal_indicators(goal) if _is_control_like(indicator) else ():
            if self.is_fixed(sub):
                return True
        return False

    def clause_is_fixed(self, body: Term) -> bool:
        """Does this clause body (directly or transitively) side-effect?"""
        return any(
            self.is_fixed(indicator)
            for indicator in iter_subgoal_indicators(body)
        )


def _is_control_like(indicator: Indicator) -> bool:
    return indicator in {
        (",", 2),
        (";", 2),
        ("->", 2),
        ("\\+", 1),
        ("not", 1),
        ("call", 1),
        ("once", 1),
        ("forall", 2),
        ("findall", 3),
        ("bagof", 3),
        ("setof", 3),
        ("catch", 3),
    }
