"""Clause reordering (paper §III-A).

Clauses of a predicate are ordered by decreasing ``p/c`` — success
probability over expected cost — the Li & Wah optimal order for the
children of an OR-node: the least costly answer is found first.

Restrictions honoured:

* a clause containing a (clause-level) cut is "essentially fixed within
  its predicate" (§IV-D-1) and keeps its absolute position, *except*
  when it is mutually exclusive (for the calling mode) with the clauses
  it would swap past — then the swap "will at most bolster an
  inadequate indexing system" and is allowed;
* a *fixed* clause (one that calls a fixed goal, §IV-B) keeps its
  absolute position;
* when all answers are wanted the search tree is no smaller (§III-A:
  "we have gained nothing"), but the order still matters for
  single-answer queries, so reordering is performed whenever permitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..analysis.fixity import FixityAnalysis
from ..markov.goal_stats import GoalStats
from ..prolog.database import Clause
from ..prolog.terms import deref, rename_term
from ..prolog.unify import Trail, unify
from .restrictions import _contains_cut

__all__ = ["ClauseRanking", "heads_mutually_exclusive", "order_clauses"]


@dataclass
class ClauseRanking:
    """One clause with the statistics used to rank it."""

    clause: Clause
    stats: GoalStats
    #: Match-probability-weighted success probability.
    p: float
    #: Expected cost of attempting the clause.
    c: float

    @property
    def ratio(self) -> float:
        return self.p / self.c if self.c > 0 else float("inf")


def heads_mutually_exclusive(first: Clause, second: Clause) -> bool:
    """Can no call unify with both heads? (Then swapping past a cut is
    safe for any mode — §IV-D-1's 'trivial exception'.)

    Conservative test: rename both heads apart and try to unify them;
    if they unify, some call could match both.
    """
    head_a = rename_term(deref(first.head), {})
    head_b = rename_term(deref(second.head), {})
    trail = Trail()
    compatible = unify(head_a, head_b, trail)
    trail.undo_to(0)
    return not compatible


def _clause_is_anchored(clause: Clause, fixity: FixityAnalysis) -> bool:
    """Must this clause keep its absolute position?"""
    if fixity.clause_is_fixed(clause.body):
        return True
    return False


def _has_clause_cut(clause: Clause) -> bool:
    return _contains_cut(clause.body)


def order_clauses(
    rankings: Sequence[ClauseRanking],
    fixity: FixityAnalysis,
) -> List[ClauseRanking]:
    """Reorder clauses by decreasing p/c under the §IV restrictions.

    Anchored clauses (fixed, or cut-bearing and not mutually exclusive
    with everything they would cross) keep their absolute positions;
    the mobile clauses are sorted by ratio into the remaining slots.
    """
    n = len(rankings)
    anchored: dict = {}
    mobile: List[ClauseRanking] = []
    # Every fact's body is ``true`` (no cut): one verdict serves them all.
    fact_anchored: Optional[bool] = None
    for index, ranking in enumerate(rankings):
        if ranking.clause.is_fact:
            if fact_anchored is None:
                fact_anchored = _clause_is_anchored(ranking.clause, fixity)
            if fact_anchored:
                anchored[index] = ranking
            else:
                mobile.append(ranking)
        elif _clause_is_anchored(ranking.clause, fixity):
            anchored[index] = ranking
        elif _has_clause_cut(ranking.clause):
            # Mobile only if mutually exclusive with every other clause.
            exclusive = all(
                other is ranking
                or heads_mutually_exclusive(ranking.clause, other.clause)
                for other in rankings
            )
            if exclusive:
                mobile.append(ranking)
            else:
                anchored[index] = ranking
        else:
            mobile.append(ranking)
    # Stable sort: equal ratios keep source order.
    mobile.sort(key=lambda r: -r.ratio)
    result: List[Optional[ClauseRanking]] = [None] * n
    for index, ranking in anchored.items():
        result[index] = ranking
    iterator = iter(mobile)
    for slot in range(n):
        if result[slot] is None:
            result[slot] = next(iterator)
    return [ranking for ranking in result if ranking is not None]
