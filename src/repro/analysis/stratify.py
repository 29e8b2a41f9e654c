"""Stratum eligibility analysis for the bottom-up backend.

The semi-naive evaluator (:mod:`repro.prolog.bottomup`) is only sound
and terminating on the *datalog-like* fragment of a program: clauses
that are range-restricted, free of side effects and control constructs,
whose negation is stratified (no predicate negates into its own
recursion component), and whose terms introduce no new structure at
derivation time (every head/body argument is a variable or a ground
term, so the Herbrand base stays finite). This module classifies each
strongly connected component of the call graph — the paper's recursion
components, in the callees-first evaluation order Tarjan's algorithm
already yields — as eligible or not, with human-readable reasons, so
both the engine dispatcher and the reorder report can surface *why* a
stratum fell back to SLD resolution.

Eligibility is transitive: a stratum whose clauses are pure but which
calls an ineligible (or undefined, or builtin-using) stratum is itself
ineligible, because materializing it would need those answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..prolog.builtins import lookup
from ..prolog.database import Clause, Database, body_goals
from ..prolog.terms import (
    Atom,
    Struct,
    Term,
    Var,
    deref,
    functor_indicator,
    term_is_ground,
    term_variables,
)
from .callgraph import CallGraph
from .recursion import strongly_connected_components

__all__ = [
    "ClauseInfo",
    "StratumInfo",
    "Stratification",
    "analyze_clause",
    "stratify",
]

Indicator = Tuple[str, int]

#: Control constructs that never appear as datalog literals.
_CONTROL_ATOMS = frozenset(["!", "fail", "false"])
_CONTROL_STRUCTS = frozenset([";", "->", ",", "call", "once", "forall",
                              "findall", "bagof", "setof", "catch"])


@dataclass
class ClauseInfo:
    """One clause's datalog decomposition (or the reasons it has none).

    ``positives``/``negatives`` hold the body's user-predicate literals
    (negatives are the goals under ``\\+``/``not``); ``reasons`` is
    empty exactly when the clause is a well-formed datalog rule.
    """

    clause: Clause
    positives: List[Term]
    negatives: List[Term]
    reasons: List[str]

    @property
    def is_fact(self) -> bool:
        return not self.positives and not self.negatives


def _flat_args(term: Term, where: str, reasons: List[str]) -> None:
    """Require every argument to be a variable or a ground term.

    A compound argument containing variables (``nat(s(X))``) can build
    unboundedly many new terms bottom-up even when range-restricted, so
    it disqualifies the clause.
    """
    if not isinstance(term, Struct):
        return
    for arg in term.args:
        arg = deref(arg)
        if isinstance(arg, Var) or term_is_ground(arg):
            continue
        reasons.append(
            f"{where} argument is a partially instantiated structure (non-datalog)"
        )
        return


def analyze_clause(clause: Clause) -> ClauseInfo:
    """Decompose one clause into datalog literals, collecting reasons
    for every feature the bottom-up evaluator cannot handle."""
    reasons: List[str] = []
    head = deref(clause.head)
    _flat_args(head, "head", reasons)
    positives: List[Term] = []
    negatives: List[Term] = []
    for goal in body_goals(clause.body):
        goal = deref(goal)
        if isinstance(goal, Var):
            reasons.append("variable body goal")
            continue
        if isinstance(goal, Atom):
            if goal.name == "true":
                continue
            if goal.name in _CONTROL_ATOMS:
                reasons.append(f"control construct {goal.name}/0")
                continue
            if lookup((goal.name, 0)) is not None:
                reasons.append(f"builtin {goal.name}/0")
                continue
            positives.append(goal)
            continue
        assert isinstance(goal, Struct)
        indicator = goal.indicator
        if goal.name in _CONTROL_STRUCTS:
            reasons.append(f"control construct {goal.name}/{goal.arity}")
            continue
        if goal.name in ("\\+", "not") and goal.arity == 1:
            inner = deref(goal.args[0])
            if not isinstance(inner, (Atom, Struct)):
                reasons.append("non-callable negated goal")
                continue
            if lookup(functor_indicator(inner)) is not None or (
                isinstance(inner, Struct) and inner.name in _CONTROL_STRUCTS
            ):
                reasons.append("negated builtin or control goal")
                continue
            _flat_args(inner, "negated literal", reasons)
            negatives.append(inner)
            continue
        if lookup(indicator) is not None:
            reasons.append(f"builtin {goal.name}/{goal.arity}")
            continue
        _flat_args(goal, "body literal", reasons)
        positives.append(goal)
    # Range restriction: every head variable and every negated-literal
    # variable must be bound by some positive body literal.
    bound: Set[int] = set()
    for literal in positives:
        bound.update(id(v) for v in term_variables(literal))
    for literal in [head] + negatives:
        for var in term_variables(literal):
            if id(var) not in bound:
                where = "head" if literal is head else "negated literal"
                reasons.append(
                    f"not range-restricted: {where} variable {var.name} "
                    "unbound by any positive body literal"
                )
                break
    return ClauseInfo(clause, positives, negatives, reasons)


@dataclass
class StratumInfo:
    """One recursion component's bottom-up eligibility verdict."""

    #: The component's predicates, sorted.
    predicates: Tuple[Indicator, ...]
    #: Does the component call into itself (self- or mutual recursion)?
    recursive: bool
    #: May the semi-naive evaluator materialize it?
    eligible: bool
    #: Why not (empty when eligible); deduplicated, sorted.
    reasons: Tuple[str, ...]


class Stratification:
    """All strata of a program, in callees-first evaluation order."""

    def __init__(self, strata: List[StratumInfo]):
        self.strata = strata
        self.by_predicate: Dict[Indicator, int] = {}
        for index, stratum in enumerate(strata):
            for indicator in stratum.predicates:
                self.by_predicate[indicator] = index

    def info(self, indicator: Indicator) -> Optional[StratumInfo]:
        """The stratum verdict covering ``indicator`` (None if unknown)."""
        index = self.by_predicate.get(indicator)
        return None if index is None else self.strata[index]

    def stratum_index(self, indicator: Indicator) -> Optional[int]:
        """Evaluation-order position of the stratum of ``indicator``."""
        return self.by_predicate.get(indicator)

    def eligible(self, indicator: Indicator) -> bool:
        """Is the predicate's stratum bottom-up eligible?"""
        info = self.info(indicator)
        return info is not None and info.eligible


def stratify(
    database: Database, callgraph: Optional[CallGraph] = None
) -> Stratification:
    """Classify every recursion component of ``database``.

    Components come back from Tarjan's algorithm callees-first, which
    is exactly the materialization order the bottom-up evaluator needs;
    eligibility propagates along it (a stratum depending on an
    ineligible one is ineligible), and negation into the component
    itself — the unstratifiable case — is refused explicitly.
    """
    graph = callgraph if callgraph is not None else CallGraph(database)
    components = strongly_connected_components(graph.callees)
    strata: List[StratumInfo] = []
    eligible_so_far: Set[Indicator] = set()
    for component in components:
        members = set(component)
        reasons: Set[str] = set()
        recursive = len(component) > 1
        for indicator in component:
            callees = graph.callees.get(indicator, set())
            if not recursive and indicator in callees:
                recursive = True
            for clause in database.clauses(indicator):
                info = analyze_clause(clause)
                reasons.update(info.reasons)
                for literal in info.negatives:
                    if functor_indicator(literal) in members:
                        reasons.add(
                            "negation inside its own recursion component "
                            "(unstratifiable)"
                        )
                for literal in info.positives + info.negatives:
                    target = functor_indicator(literal)
                    if target in members:
                        continue
                    if not database.defines(target):
                        reasons.add(
                            f"calls undefined predicate {target[0]}/{target[1]}"
                        )
                    elif target not in eligible_so_far:
                        reasons.add(
                            f"depends on ineligible stratum of {target[0]}/{target[1]}"
                        )
        eligible = not reasons
        if eligible:
            eligible_so_far.update(members)
        strata.append(
            StratumInfo(
                predicates=tuple(sorted(component)),
                recursive=recursive,
                eligible=eligible,
                reasons=tuple(sorted(reasons)),
            )
        )
    return Stratification(strata)
