"""Warren-style domain estimation (paper §I-E and §VI-A-4).

Warren's heuristic needs, for each argument position of each database
predicate, the *domain* — the set of constants that can appear there —
and the number of stored tuples. From these we derive:

* ``warren_number(pred, mode)`` — the factor by which a goal multiplies
  the number of alternatives: ``tuples / Π |domain_i|`` over the
  instantiated positions *i* of the calling mode. Values < 1 mean the
  goal acts as a test; large values mean it is a generator.
* ``success_probability(pred, mode)`` — the chance a call succeeds at
  all, estimated as ``min(1, warren_number)``.
* ``fact_match_probability(pred, mode)`` — the chance one particular
  fact head unifies with a call, ``Π |domain_i|^{-1}`` over positions
  instantiated in both call and fact.

Domains are collected from fact clauses; ``:- domain_size`` declarations
override the collected sizes (the paper notes domain size "is
problematic even for database programs", so the user may know better).
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ..prolog.database import Database
from ..prolog.terms import Atom, Struct, deref, is_number, term_is_ground
from .declarations import Declarations
from .modes import Mode, ModeItem

__all__ = ["DomainAnalysis"]

Indicator = Tuple[str, int]


class DomainAnalysis:
    """Argument domains and tuple counts of the fact predicates."""

    def __init__(self, database: Database, declarations: Optional[Declarations] = None):
        self.database = database
        self.declarations = declarations or Declarations()
        self._domains: Dict[Tuple[Indicator, int], Set] = {}
        self._tuples: Dict[Indicator, int] = {}
        self._collect()

    def _collect(self) -> None:
        for indicator in self.database.predicates():
            facts = [
                clause for clause in self.database.clauses(indicator) if clause.is_fact
            ]
            self._tuples[indicator] = len(facts)
            for clause in facts:
                head = deref(clause.head)
                if not isinstance(head, Struct):
                    continue
                for position, arg in enumerate(head.args, start=1):
                    arg = deref(arg)
                    if isinstance(arg, Atom):
                        key = arg.name
                    elif is_number(arg):
                        key = arg
                    elif term_is_ground(arg):
                        key = str(arg)
                    else:
                        continue
                    self._domains.setdefault((indicator, position), set()).add(key)

    # -- raw data ------------------------------------------------------------

    def tuple_count(self, indicator: Indicator) -> int:
        """Number of fact clauses of the predicate."""
        return self._tuples.get(indicator, 0)

    def domain(self, indicator: Indicator, position: int) -> Set:
        """Constants observed at an argument position of the facts."""
        return set(self._domains.get((indicator, position), ()))

    def domain_size(self, indicator: Indicator, position: int) -> int:
        """Declared size if given, else the observed size (at least 1)."""
        declared = self.declarations.domain_sizes.get((indicator, position))
        if declared is not None:
            return max(1, declared)
        return max(1, len(self._domains.get((indicator, position), ())))

    # -- Warren's function ------------------------------------------------------

    def warren_number(self, indicator: Indicator, mode: Mode) -> float:
        """Expected number of matching tuples for a call in ``mode``."""
        tuples = self.tuple_count(indicator)
        if tuples == 0:
            return 0.0
        estimate = float(tuples)
        for position, item in enumerate(mode, start=1):
            if item is ModeItem.PLUS:
                estimate /= self.domain_size(indicator, position)
        return estimate

    def success_probability(self, indicator: Indicator, mode: Mode) -> float:
        """Chance that a call in ``mode`` has at least one solution."""
        declared = self.declarations.match_probs.get(indicator)
        if declared is not None:
            return declared
        return min(1.0, self.warren_number(indicator, mode))

    def expected_solutions(self, indicator: Indicator, mode: Mode) -> float:
        """Expected solution count (Warren's multiplying factor, >= 0)."""
        return self.warren_number(indicator, mode)

    def fact_match_probability(self, indicator: Indicator, mode: Mode) -> float:
        """Chance one given fact head matches a call in ``mode``."""
        probability = 1.0
        for position, item in enumerate(mode, start=1):
            if item is ModeItem.PLUS:
                probability /= self.domain_size(indicator, position)
        return probability
