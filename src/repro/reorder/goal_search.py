"""Searching for the cheapest legal goal order (paper §VI-A-3).

Two strategies over the permutations of a mobile block:

* **exhaustive** — rank every constraint-respecting, mode-legal
  permutation with the Markov chain and keep the cheapest ("It permutes
  other blocks exhaustively and computes their cost, saving the least
  expensive order");
* **A-star** — "or, if too many permutations are possible, it reorders them
  using best-first search", adapting Smith & Genesereth: nodes are
  ordered prefixes of the block, the evaluation function is the
  all-solutions chain cost of the prefix, which is admissible because
  appending goals to a prefix can only add cost (every visit count and
  every per-visit cost is nonnegative, and the prefix's visit counts do
  not decrease when goals are appended... they can only grow through
  extra backtracking into the prefix). The first complete node popped is
  optimal.

Both prune illegal orders as soon as a prefix calls a goal in an
illegal mode ("As soon as an illegal mode arises, we backtrack to
generate another order, so that we test only legal orders").

Costs: multi-solution blocks are ranked by the all-solutions total
cost; single-solution blocks (goals committed by a cut) by the Fig. 4
single-solution expected cost.

Both searches step through one ``_PrefixWalk`` per block. A goal's
stats and bindings depend only on its own variables' states, so the
walk keeps a slot vector of the block's variable states and a memo
from (goal, states of its variables) to (stats, new states). Each pair
reaches ``CostModel.goal_stats`` once per search, at its first
occurrence in the search's own order: permutation order for the
exhaustive search, pop order for A*. The model's memo and warnings
therefore fill exactly as a search that called the model at every node
would fill them. The winner's final ``VarState`` is replayed through
``goal_stats`` once.

The exhaustive search walks the permutations depth-first in
lexicographic order, so consecutive permutations share their prefix
and each prefix is evaluated once:

* **Prefix sharing.** The walk keeps one (goal, stats, variable states)
  entry per depth and steps only the suffix that changes. A
  mode-illegal prefix rules out every permutation that starts with it;
  those are counted, not walked.
* **Bound.** Multi-solution blocks carry the prefix's all-solutions
  total through the same visit recursion as the closed form. By the
  admissibility argument above it never exceeds the cost of any
  completion, so once it is above the best complete cost (by a relative
  margin of 1e-9) the subtree cannot hold a winner and is skipped. A
  skipped subtree is still walked without costs, once per distinct
  (remaining goals, their variable states), to keep the illegal count
  and the model's memo exact. Single-solution blocks get no bound: a
  prefix's Fig. 4 cost is not a lower bound on its completions'.
* **Exact ranking.** Complete orders are ranked by the same float a
  full evaluation gives (``sequence_cost``, or the single-solution cost
  of ``evaluate_sequence``), never by the running total, since a
  last-bit difference could flip an exact tie. Every cost that ranks an
  order is summed left to right, never by ``sum()``: ``sum()`` over
  floats is compensated from Python 3.12 on, so ties would break
  differently from one Python version to the next. Ties go to the
  first order found; the full evaluation runs once, for the winner.

A* pops prefixes best-first. A node holds its order, the mask of goals
still to place, the slot vector, the stats, the all-solutions terms
``c_i·v_i`` and the visit flow ``v_n·p_n``:

* **Ranking.** A multi-solution child appends one term, ``c·v`` with
  ``v`` from ``formulas.all_solutions_visit``, and ranks by the terms
  summed left to right. These are ``sequence_cost``'s summands in its
  order and summation order, so the heap key is the float a full
  evaluation gives on every Python version, without re-running the
  visit recursion over the prefix.
  Single-solution children rank by ``evaluate_sequence``'s
  single-solution cost. Ties go to the first child pushed.
* **Node budget.** When ``node_budget`` children have been generated,
  the cheapest open prefixes are completed greedily on the same walk
  (strategy ``astar-greedy``).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..markov.clause_model import SequenceEvaluation, evaluate_sequence, sequence_cost
from ..markov.formulas import all_solutions_visit
from ..markov.goal_stats import GoalStats
from ..markov.predicate_model import CostModel
from ..analysis.modes import VarState
from ..prolog.terms import Term, term_variables
from ..robustness.budget import Budget

__all__ = [
    "OrderResult",
    "SearchCounters",
    "find_best_order",
    "exhaustive_search",
    "astar_search",
]

#: Block sizes up to this bound are permuted exhaustively by default
#: (the paper: "An n-goal clause has n! permutations; for n > 3, trying
#: all of these can be expensive" — modern hardware affords a bit more).
DEFAULT_EXHAUSTIVE_LIMIT = 6

Constraint = Tuple[int, int]

#: Relative slack of the exhaustive bound, which compares a running
#: prefix total with the ranked leaf cost of a full evaluation. Both are
#: summed left to right; the slack is a guard against cutting a tie.
_BOUND_MARGIN = 1e-9


@dataclass
class SearchCounters:
    """Search-internals telemetry, accumulated across blocks.

    One instance rides along a whole :class:`~repro.reorder.system.Reorderer`
    run (the observability layer exports it as a ``search`` record), so
    the counters describe the pipeline's total search effort.
    """

    #: Blocks handed to :func:`find_best_order`.
    blocks: int = 0
    #: Blocks solved by each strategy.
    exhaustive_blocks: int = 0
    astar_blocks: int = 0
    #: Exhaustive: constraint-respecting permutations, how many of
    #: those the legality filter rejected, and how many legal ones the
    #: cost bound skipped unranked.
    exhaustive_permutations: int = 0
    exhaustive_illegal: int = 0
    exhaustive_pruned: int = 0
    #: A*: child nodes generated, children pruned as mode-illegal,
    #: and the largest open-list size seen.
    astar_expanded: int = 0
    astar_pruned: int = 0
    astar_heap_peak: int = 0
    #: A*: children whose f-value *decreased* relative to their parent —
    #: each one is a violation of the admissibility argument (appending
    #: a goal should never lower the prefix cost).
    admissibility_violations: int = 0
    #: A*: blocks whose node budget ran out, forcing the greedy
    #: admissible-fallback completion (strategy ``astar-greedy``).
    astar_budget_exhausted: int = 0

    def to_dict(self) -> Dict[str, int]:
        """All counters as a flat dict (JSONL-ready)."""
        return {
            "blocks": self.blocks,
            "exhaustive_blocks": self.exhaustive_blocks,
            "astar_blocks": self.astar_blocks,
            "exhaustive_permutations": self.exhaustive_permutations,
            "exhaustive_illegal": self.exhaustive_illegal,
            "exhaustive_pruned": self.exhaustive_pruned,
            "astar_expanded": self.astar_expanded,
            "astar_pruned": self.astar_pruned,
            "astar_heap_peak": self.astar_heap_peak,
            "admissibility_violations": self.admissibility_violations,
            "astar_budget_exhausted": self.astar_budget_exhausted,
        }

    def to_record(self) -> Dict[str, object]:
        """The counters as one typed JSONL record."""
        record: Dict[str, object] = {"type": "search"}
        record.update(self.to_dict())
        return record


@dataclass
class OrderResult:
    """Outcome of a block search."""

    #: Chosen order as indices into the original goal list.
    order: Tuple[int, ...]
    #: Chain evaluation of the chosen order.
    evaluation: SequenceEvaluation
    #: Final variable states after the ordered goals.
    states: VarState
    #: Number of (partial or complete) orders evaluated.
    explored: int
    #: Which strategy ran ('exhaustive' or 'astar' or 'fixed').
    strategy: str


def _rank_cost(stats: Sequence[GoalStats], multi_solution: bool) -> float:
    """The float an order is ranked by (see the module docstring)."""
    if multi_solution:
        return sequence_cost(stats)
    return evaluate_sequence(stats).single_cost


class _PrefixWalk:
    """One block's permutation prefixes: steps, candidates and the
    exhaustive search's depth-first walk.

    Goal sets are bitmasks over goal indices; ``rem`` is the set still
    to place. The walk's variable state is a list with one slot per
    variable of the block (``None`` where the caller's ``VarState`` has
    no entry), since a goal's stats and bindings depend only on its own
    variables.
    """

    def __init__(self, goals, states, model, constraints, multi_solution, budget):
        self.goals = goals
        self.states = states
        self.model = model
        self.multi_solution = multi_solution
        self.budget = budget
        n = len(goals)
        self.blockers = [0] * n
        for before, after in constraints:
            self.blockers[after] |= 1 << before
        slot_of: Dict[int, int] = {}
        self.goal_slots: List[Tuple[int, ...]] = []
        for goal in goals:
            self.goal_slots.append(tuple(
                slot_of.setdefault(id(var), len(slot_of))
                for var in term_variables(goal)
            ))
        self.var_ids = list(slot_of)
        self.initial = [states.get(var_id) for var_id in self.var_ids]
        self.order = [0] * n
        self.stats: List[Optional[GoalStats]] = [None] * n
        self.best_cost: Optional[float] = None
        self.best_order: Optional[Tuple[int, ...]] = None
        self.best_stats: List[GoalStats] = []
        self.pruned = 0
        # (goal, its slot values) -> None if illegal, else (stats, new values)
        self._steps: Dict[tuple, Optional[Tuple[GoalStats, tuple]]] = {}
        self._candidates: Dict[int, List[int]] = {}
        self._extensions: Dict[int, int] = {0: 1}
        self._signature_slots: Dict[int, Tuple[int, ...]] = {}
        # (rem, slot values of rem's goals) -> illegal permutations below
        self._illegal_below: Dict[tuple, int] = {}

    def candidates(self, rem: int) -> List[int]:
        """Goals of ``rem`` whose must-precede goals are all placed, ascending."""
        found = self._candidates.get(rem)
        if found is None:
            found = [
                i for i in range(len(self.goals))
                if rem >> i & 1 and not self.blockers[i] & rem
            ]
            self._candidates[rem] = found
        return found

    def extensions(self, rem: int) -> int:
        """Constraint-respecting orders of the goals in ``rem``."""
        count = self._extensions.get(rem)
        if count is None:
            count = sum(
                self.extensions(rem & ~(1 << i)) for i in self.candidates(rem)
            )
            self._extensions[rem] = count
        return count

    def step(self, index: int, values: List) -> Optional[Tuple[GoalStats, List]]:
        """Stats of goal ``index`` after ``values``, and the values after it.

        Each (goal, variable states) pair calls ``CostModel.goal_stats``
        once, at its first occurrence in the caller's order, so the
        model's memo fills in the order a search that called it at every
        node would fill it.
        """
        slots = self.goal_slots[index]
        key = (index, tuple([values[slot] for slot in slots]))
        entry = self._steps.get(key, key)
        if entry is key:
            scratch = dict(self.states)
            for var_id, value in zip(self.var_ids, values):
                if value is None:
                    scratch.pop(var_id, None)
                else:
                    scratch[var_id] = value
            stats = self.model.goal_stats(self.goals[index], scratch)
            entry = None if stats is None else (
                stats,
                tuple(scratch.get(self.var_ids[slot]) for slot in slots),
            )
            self._steps[key] = entry
        if entry is None:
            return None
        child = list(values)
        for slot, value in zip(slots, entry[1]):
            child[slot] = value
        return entry[0], child

    def signature(self, rem: int, values: List) -> tuple:
        """Everything the subtree below a prefix depends on."""
        slots = self._signature_slots.get(rem)
        if slots is None:
            slots = tuple(sorted({
                slot for i in range(len(self.goals)) if rem >> i & 1
                for slot in self.goal_slots[i]
            }))
            self._signature_slots[rem] = slots
        return (rem, tuple([values[slot] for slot in slots]))

    def rank(self, rem: int, values: List, depth: int, flow: float, total: float) -> int:
        """Rank every order below the prefix ``order[:depth]``.

        ``flow`` and ``total`` carry the all-solutions visit recursion
        and the prefix's cost. Returns the mode-illegal permutations
        below the prefix.
        """
        if not rem:
            cost = _rank_cost(self.stats, self.multi_solution)
            if self.best_cost is None or cost < self.best_cost:
                self.best_cost = cost
                self.best_order = tuple(self.order)
                self.best_stats = list(self.stats)
            return 0
        if self.budget is not None:
            self.budget.check("goal_search.exhaustive")
        illegal = 0
        for index in self.candidates(rem):
            rest = rem & ~(1 << index)
            step = self.step(index, values)
            if step is None:
                illegal += self.extensions(rest)
                continue
            stats, child = step
            self.order[depth] = index
            self.stats[depth] = stats
            child_flow = child_total = 0.0
            if self.multi_solution:
                visits, child_flow = all_solutions_visit(flow, stats.chain_probability)
                child_total = total + stats.chain_cost * visits
                if (
                    self.best_cost is not None
                    and child_total > self.best_cost * (1.0 + _BOUND_MARGIN)
                ):
                    below = self.illegal_below(rest, child)
                    illegal += below
                    self.pruned += self.extensions(rest) - below
                    continue
            illegal += self.rank(rest, child, depth + 1, child_flow, child_total)
        self._illegal_below[self.signature(rem, values)] = illegal
        return illegal

    def illegal_below(self, rem: int, values: List) -> int:
        """Mode-illegal permutations below a prefix the bound cut.

        The subtree is walked without costs, once per signature, so the
        illegal count stays exact and every first (goal, states) pair
        in it still reaches the model.
        """
        if not rem:
            return 0
        signature = self.signature(rem, values)
        known = self._illegal_below.get(signature)
        if known is not None:
            return known
        illegal = 0
        for index in self.candidates(rem):
            rest = rem & ~(1 << index)
            step = self.step(index, values)
            if step is None:
                illegal += self.extensions(rest)
            else:
                illegal += self.illegal_below(rest, step[1])
        self._illegal_below[signature] = illegal
        return illegal


def _replayed(
    walk: _PrefixWalk,
    order: Tuple[int, ...],
    stats: Sequence[GoalStats],
    explored: int,
    strategy: str,
) -> OrderResult:
    """The result for a chosen order, its final states replayed on a real
    ``VarState``: the caller gets exactly the dict the from-scratch
    evaluation would have built."""
    final = dict(walk.states)
    for index in order:
        walk.model.goal_stats(walk.goals[index], final)
    return OrderResult(
        order=order,
        evaluation=evaluate_sequence(stats),
        states=final,
        explored=explored,
        strategy=strategy,
    )


def exhaustive_search(
    goals: Sequence[Term],
    states: VarState,
    model: CostModel,
    constraints: Set[Constraint],
    multi_solution: bool = True,
    counters: Optional[SearchCounters] = None,
    budget: Optional[Budget] = None,
) -> Optional[OrderResult]:
    """Rank every legal permutation, sharing prefixes; None if none is legal."""
    walk = _PrefixWalk(goals, states, model, constraints, multi_solution, budget)
    full = (1 << len(goals)) - 1
    illegal = walk.rank(full, walk.initial, 0, 1.0, 0.0)
    explored = walk.extensions(full)
    if counters is not None:
        counters.exhaustive_permutations += explored
        counters.exhaustive_illegal += illegal
        counters.exhaustive_pruned += walk.pruned
    if walk.best_order is None:
        return None
    return _replayed(walk, walk.best_order, walk.best_stats, explored, "exhaustive")


#: An A* node: (rank, tiebreak, order, remaining-goal mask, slot values,
#: stats, all-solutions terms c_i·v_i, visit flow v_n·p_n).
_Node = Tuple[float, int, Tuple[int, ...], int, List, Tuple[GoalStats, ...],
              Tuple[float, ...], float]


def _extend(
    stats_list: Tuple[GoalStats, ...],
    terms: Tuple[float, ...],
    flow: float,
    stats: GoalStats,
    multi_solution: bool,
) -> Tuple[float, Tuple[GoalStats, ...], Tuple[float, ...], float]:
    """A prefix with one more goal: its rank, stats, terms and flow.

    A multi-solution prefix ranks by its terms summed left to right, the
    same summands in the same order as ``sequence_cost``, so the float is
    bit-identical to a full evaluation's (see the module docstring).
    """
    child_stats = stats_list + (stats,)
    if not multi_solution:
        return _rank_cost(child_stats, False), child_stats, terms, flow
    visits, child_flow = all_solutions_visit(flow, stats.chain_probability)
    child_terms = terms + (stats.chain_cost * visits,)
    rank = 0.0
    for term in child_terms:
        rank += term
    return rank, child_stats, child_terms, child_flow


def _greedy_complete(
    walk: _PrefixWalk, node: _Node, explored: int
) -> Optional[Tuple[Tuple[int, ...], Tuple[GoalStats, ...], int]]:
    """Finish a prefix greedily: cheapest legal goal next, every step.

    The admissible fallback when the A* node budget runs out: the
    prefix handed in is the cheapest open node (its f-value is a lower
    bound on any completion), and the greedy tail keeps every
    mode-legality guarantee — only optimality of the *suffix* is
    surrendered. Ties break toward the lower goal index, keeping the
    fallback deterministic. Returns the order, its stats and the
    explored count, or None from a legality dead end.
    """
    _, _, order, rem, values, stats_list, terms, flow = node
    while rem:
        best = None
        for index in walk.candidates(rem):
            step = walk.step(index, values)
            if step is None:
                continue
            explored += 1
            extended = _extend(stats_list, terms, flow, step[0], walk.multi_solution)
            if best is None or extended[0] < best[0][0]:
                best = (extended, index, step[1])
        if best is None:
            return None
        (_, stats_list, terms, flow), index, values = best
        order += (index,)
        rem &= ~(1 << index)
    return order, stats_list, explored


def astar_search(
    goals: Sequence[Term],
    states: VarState,
    model: CostModel,
    constraints: Set[Constraint],
    multi_solution: bool = True,
    counters: Optional[SearchCounters] = None,
    node_budget: Optional[int] = None,
    budget: Optional[Budget] = None,
) -> Optional[OrderResult]:
    """Best-first search over ordered prefixes (Smith & Genesereth / A*).

    ``node_budget`` caps the number of generated children; when it runs
    out, the cheapest open prefix is completed greedily (strategy
    ``astar-greedy``) so the block still gets a legal order instead of
    an unbounded search. ``budget`` adds deadline/cancel checks per
    expansion.
    """
    walk = _PrefixWalk(goals, states, model, constraints, multi_solution, budget)
    tiebreak = itertools.count()  # deterministic tie-breaking
    start: _Node = (
        0.0, next(tiebreak), (), (1 << len(goals)) - 1, walk.initial, (), (), 1.0,
    )
    heap = [start]
    explored = 0
    exhausted = False
    while heap:
        node = heapq.heappop(heap)
        cost, _, order, rem, values, stats_list, terms, flow = node
        if budget is not None:
            budget.check("goal_search.astar")
        if node_budget is not None and explored >= node_budget:
            if counters is not None and not exhausted:
                counters.astar_budget_exhausted += 1
            exhausted = True
            # Greedily finish the cheapest open prefixes until one
            # completes legally; every pop is still best-first.
            completed = _greedy_complete(walk, node, explored)
            if completed is not None:
                return _replayed(walk, *completed, "astar-greedy")
            continue
        if not rem:
            return _replayed(walk, order, stats_list, explored, "astar")
        for index in walk.candidates(rem):
            explored += 1
            step = walk.step(index, values)
            if step is None:
                if counters is not None:
                    counters.astar_pruned += 1
                continue  # illegal in this position: prune
            stats, child = step
            child_cost, child_stats, child_terms, child_flow = _extend(
                stats_list, terms, flow, stats, multi_solution
            )
            if counters is not None:
                counters.astar_expanded += 1
                if child_cost < cost - 1e-9:
                    counters.admissibility_violations += 1
            heapq.heappush(heap, (
                child_cost, next(tiebreak), order + (index,),
                rem & ~(1 << index), child, child_stats, child_terms, child_flow,
            ))
            if counters is not None and len(heap) > counters.astar_heap_peak:
                counters.astar_heap_peak = len(heap)
    return None


def find_best_order(
    goals: Sequence[Term],
    states: VarState,
    model: CostModel,
    constraints: Optional[Set[Constraint]] = None,
    multi_solution: bool = True,
    exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
    counters: Optional[SearchCounters] = None,
    node_budget: Optional[int] = None,
    budget: Optional[Budget] = None,
) -> Optional[OrderResult]:
    """Best legal order of a block: exhaustive for small blocks, A* above
    the limit. None when no order is legal (caller falls back to the
    source order and reports). ``node_budget`` bounds the A* expansion
    (greedy admissible fallback past it); ``budget`` adds
    deadline/cancel checks inside both strategies."""
    constraints = constraints or set()
    if counters is not None:
        counters.blocks += 1
    if len(goals) <= 1:
        scratch = dict(states)
        evaluation = model.evaluate_goals(list(goals), scratch)
        if evaluation is None:
            return None
        return OrderResult(
            order=tuple(range(len(goals))),
            evaluation=evaluation,
            states=scratch,
            explored=1,
            strategy="fixed",
        )
    if len(goals) <= exhaustive_limit:
        if counters is not None:
            counters.exhaustive_blocks += 1
        return exhaustive_search(
            goals, states, model, constraints, multi_solution, counters,
            budget=budget,
        )
    if counters is not None:
        counters.astar_blocks += 1
    return astar_search(
        goals, states, model, constraints, multi_solution, counters,
        node_budget=node_budget, budget=budget,
    )
