"""Semifixity analysis (paper §IV-C).

A *semifixed* predicate returns very different results in different
modes — ``var/1`` is the canonical example; a predicate whose clause
selection is controlled by a cut plus an instantiation test is the user
level one. Reordering must preserve the instantiation state of the
*culprit variables*: the variables occupying the culprit argument
positions of a semifixed goal.

We compute, for each predicate, the set of culprit argument positions
(1-based). For builtins this comes from the registry's ``semifixed``
flag (all positions are culprits). For user predicates, culpritness
propagates: if a clause body calls a semifixed goal whose culprit
variable also appears in the clause head at position *i*, then the
predicate is semifixed in position *i* ("semifixity propagates to
ancestors if a culprit variable also appears in the head of a clause").

A predicate guarded by cuts whose clause choice depends on head
instantiation (the paper's ``a(X, Y, b) :- !.`` example) is also
semifixed; we detect the syntactic pattern: a clause with a cut whose
head has a non-variable argument in some position makes that position a
culprit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..prolog.builtins import BUILTINS
from ..prolog.database import Database, body_goals
from ..prolog.terms import (
    Atom,
    Struct,
    Term,
    Var,
    deref,
    term_variables,
)
from .callgraph import CallGraph

__all__ = ["SemifixityAnalysis"]

Indicator = Tuple[str, int]


def _builtin_culprits() -> Dict[Indicator, Set[int]]:
    culprits: Dict[Indicator, Set[int]] = {}
    for indicator, registered in BUILTINS.items():
        if registered.semifixed:
            culprits[indicator] = set(range(1, indicator[1] + 1))
    return culprits


def _is_control(goal: Term) -> bool:
    return isinstance(goal, Struct) and goal.arity == 2 and goal.name in (",", ";", "->")


def _has_cut(body: Term) -> bool:
    for goal in body_goals(body):
        goal = deref(goal)
        if isinstance(goal, Atom) and goal.name == "!":
            return True
    return False


class SemifixityAnalysis:
    """Culprit argument positions per predicate.

    Declared legal modes *release* culprit positions: when every
    declared input mode demands the same instantiation at a position
    (e.g. ``:- legal_mode(unequal(+, +))``), the legality checker
    already guarantees reordering cannot change that position's state,
    so no semifixity constraint is needed — this is how annotations buy
    reordering freedom (§V-A).
    """

    def __init__(
        self,
        database: Database,
        callgraph: Optional[CallGraph] = None,
        declarations=None,
    ):
        self.database = database
        self.callgraph = callgraph or CallGraph(database)
        self.declarations = declarations
        self._pins = self._declared_pins()
        self.culprits: Dict[Indicator, Set[int]] = {}
        for indicator, positions in _builtin_culprits().items():
            effective = positions - self._pins.get(indicator, set())
            if effective:
                self.culprits[indicator] = effective
        self._add_cut_guarded()
        self._propagate()

    def _declared_pins(self) -> Dict[Indicator, Set[int]]:
        """Positions whose instantiation is fixed by declared legal modes."""
        if self.declarations is None:
            return {}
        from .modes import ModeItem

        pins: Dict[Indicator, Set[int]] = {}
        for indicator, pairs in self.declarations.legal_modes.items():
            if not pairs:
                continue
            pinned = {
                position
                for position in range(1, indicator[1] + 1)
                if len({pair.input[position - 1] for pair in pairs}) == 1
                and pairs[0].input[position - 1] is not ModeItem.ANY
            }
            if pinned:
                pins[indicator] = pinned
        return pins

    # -- seeds ---------------------------------------------------------------

    def _add_cut_guarded(self) -> None:
        """Mark cut-guarded, head-discriminated predicates (§IV-C example)."""
        for indicator in self.database.predicates():
            clauses = self.database.clauses(indicator)
            if len(clauses) < 2:
                continue  # one clause: the cut cannot change selection
            positions: Set[int] = set()
            for clause in clauses:
                if not _has_cut(clause.body):
                    continue
                head = deref(clause.head)
                if not isinstance(head, Struct):
                    continue
                for index, arg in enumerate(head.args, start=1):
                    if not isinstance(deref(arg), Var):
                        positions.add(index)
            positions -= self._pins.get(indicator, set())
            if positions:
                self.culprits.setdefault(indicator, set()).update(positions)

    # -- propagation -----------------------------------------------------------

    def _propagate(self) -> None:
        changed = True
        while changed:
            changed = False
            for indicator in self.database.predicates():
                for clause in self.database.clauses(indicator):
                    new_positions = self._clause_culprit_positions(clause)
                    new_positions -= self._pins.get(indicator, set())
                    if not new_positions:
                        continue
                    existing = self.culprits.setdefault(indicator, set())
                    if not new_positions <= existing:
                        existing.update(new_positions)
                        changed = True

    def _clause_culprit_positions(self, clause) -> Set[int]:
        head = deref(clause.head)
        if not isinstance(head, Struct):
            return set()
        culprit_vars = {id(v) for v in self.culprit_variables(clause.body)}
        if not culprit_vars:
            return set()
        positions: Set[int] = set()
        for index, arg in enumerate(head.args, start=1):
            if any(id(v) in culprit_vars for v in term_variables(arg)):
                positions.add(index)
        return positions

    # -- queries ---------------------------------------------------------------

    def positions(self, indicator: Indicator) -> Set[int]:
        """Culprit argument positions of a predicate (empty if none)."""
        return set(self.culprits.get(indicator, ()))

    def is_semifixed(self, indicator: Indicator) -> bool:
        """Does the predicate have any culprit positions?"""
        return bool(self.culprits.get(indicator))

    def culprit_variables(self, goal: Term) -> List[Var]:
        """The variables in culprit positions of this goal.

        A control compound (``,``, ``;``, ``->``) has the culprits of
        the goals inside it plus every variable of an if-then-else
        condition: the condition commits to its first solution, just
        as ``once/1`` does (Table I). Negation, meta-call and
        set-predicate goals count whole — their semifixity flag lives
        on the wrapper, and its culprit variables are the variables of
        the wrapped goal.
        """
        goal = deref(goal)
        if not isinstance(goal, Struct):
            return []
        if _is_control(goal):
            return _unique(self._control_culprits(goal))
        positions = self.culprits.get((goal.name, goal.arity))
        if not positions:
            return []
        return _unique(
            variable
            for index in sorted(positions)
            if index <= goal.arity
            for variable in term_variables(goal.args[index - 1])
        )

    def _control_culprits(self, body: Term):
        stack = [body]
        while stack:
            goal = deref(stack.pop())
            if _is_control(goal):
                if goal.name == "->":
                    yield from term_variables(goal.args[0])
                stack.append(goal.args[1])
                stack.append(goal.args[0])
            else:
                yield from self.culprit_variables(goal)


def _unique(variables) -> List[Var]:
    """Variables in first-occurrence order, each once."""
    seen: Set[int] = set()
    unique: List[Var] = []
    for variable in variables:
        if id(variable) not in seen:
            seen.add(id(variable))
            unique.append(variable)
    return unique
