"""Restrictions on movement → block partition (paper §IV, Table I).

A clause body is partitioned into *blocks* of consecutive goals:

* **mobile blocks** — maximal runs of goals that may be freely permuted
  (subject to mode legality and semifixity constraints);
* **immobile blocks** — barriers that stay in place:

  - a *fixed* goal (side-effecting, directly or through descendants);
  - the cut — and, per §IV-D-1, everything *before* a cut: the cut
    commits to the first answer of the preceding conjunction, so
    reordering those goals would only preserve tree-equivalence, which
    we refuse (set-equivalence is the contract);
  - ``fail``/``false`` — the boundary of a failure-driven loop (§IV-D-4:
    "goals of a failure-driven loop must remain within it");
  - compound control goals that *contain* a cut or a fixed goal (a
    disjunction with a write in one branch is itself immobile).

Within a mobile block, *semifixity* (§IV-C) contributes pairwise
precedence constraints instead of barriers: a semifixed goal must keep
its original relative order with every goal that shares one of its
culprit variables, because crossing could change the culprit's
instantiation at test time. Negation (§IV-D-5) is semifixed in all its
variables and is handled by the same mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from ..analysis.fixity import FixityAnalysis
from ..analysis.semifixity import SemifixityAnalysis
from ..prolog.database import body_goals
from ..prolog.terms import Atom, Struct, Term, deref, term_variables

__all__ = ["Block", "BlockPartition", "partition_body", "order_constraints"]


@dataclass
class Block:
    """A run of consecutive goals with a shared mobility status."""

    goals: List[Term]
    mobile: bool
    #: True when the block's goals may deliver several solutions to the
    #: rest of the clause (all-solutions chain); False for goals whose
    #: first solution is committed (they precede a cut → Fig. 4 chain).
    multi_solution: bool = True

    def __len__(self) -> int:
        return len(self.goals)


@dataclass
class BlockPartition:
    """The block decomposition of one clause body."""

    blocks: List[Block] = field(default_factory=list)

    @property
    def mobile_goal_count(self) -> int:
        return sum(len(b) for b in self.blocks if b.mobile)

    def all_goals(self) -> List[Term]:
        """The body's goals, flattened back out of the blocks."""
        return [goal for block in self.blocks for goal in block.goals]


def _contains_cut(term: Term) -> bool:
    """Does this (possibly compound control) goal contain a top-level cut
    that would cut the enclosing clause? Cuts inside ``\\+``, ``not``,
    ``call``, ``once`` and the set predicates are local and do not count."""
    term = deref(term)
    if isinstance(term, Atom):
        return term.name == "!"
    if not isinstance(term, Struct):
        return False
    if term.name in (",", ";") and term.arity == 2:
        return _contains_cut(term.args[0]) or _contains_cut(term.args[1])
    if term.name == "->" and term.arity == 2:
        # The condition's cut is local ('->' is an implicit cut barrier),
        # but a cut in the 'then' part cuts the clause.
        return _contains_cut(term.args[1])
    return False


def _is_cut(term: Term) -> bool:
    term = deref(term)
    return isinstance(term, Atom) and term.name == "!"


def _is_fail(term: Term) -> bool:
    term = deref(term)
    return isinstance(term, Atom) and term.name in ("fail", "false")


def goal_is_mobile(goal: Term, fixity: FixityAnalysis) -> bool:
    """May this goal move within its clause?"""
    if _is_cut(goal) or _is_fail(goal):
        return False
    if fixity.goal_is_fixed(goal):
        return False
    if _contains_cut(goal):
        return False
    return True


def partition_body(
    body: Term, fixity: FixityAnalysis
) -> BlockPartition:
    """Split a clause body into mobile and immobile blocks."""
    goals = body_goals(body)
    partition = BlockPartition()
    current: List[Term] = []

    def flush_mobile() -> None:
        if current:
            partition.blocks.append(Block(list(current), mobile=True))
            current.clear()

    for goal in goals:
        if goal_is_mobile(goal, fixity):
            current.append(goal)
        else:
            flush_mobile()
            partition.blocks.append(Block([goal], mobile=False))
    flush_mobile()

    _mark_pre_cut_blocks(partition)
    return partition


def _mark_pre_cut_blocks(partition: BlockPartition) -> None:
    """Goals before a cut are immobile and use the one-solution chain."""
    cut_positions = [
        index
        for index, block in enumerate(partition.blocks)
        if not block.mobile and any(_is_cut(g) or _contains_cut(g) for g in block.goals)
    ]
    if not cut_positions:
        return
    last_cut = max(cut_positions)
    for block in partition.blocks[:last_cut]:
        block.mobile = False
        block.multi_solution = False


def order_constraints(
    goals: Sequence[Term],
    semifixity: SemifixityAnalysis,
    initial_states: Optional[dict] = None,
) -> Set[Tuple[int, int]]:
    """Precedence pairs (i, j): goal i must stay before goal j.

    Generated for every pair where one goal is semifixed and the other
    mentions one of its culprit variables (§IV-C: fixing the semifixed
    goal "with respect to other goals that might change the variable's
    instantiation"). Indices are positions in ``goals``.

    Culprit variables already ground on entry impose no constraint —
    the paper: "If we call t/3 with X instantiated, s(X, Y) does not
    restrict reordering. (Hence, the term 'semifixed.')"
    """
    from ..analysis.modes import Inst

    constraints: Set[Tuple[int, int]] = set()
    culprit_sets = []
    variable_sets = []
    states = initial_states or {}
    for goal in goals:
        culprit_sets.append(
            {
                id(v)
                for v in semifixity.culprit_variables(goal)
                if states.get(id(v)) is not Inst.GROUND
            }
        )
        variable_sets.append({id(v) for v in term_variables(goal)})
    for i in range(len(goals)):
        for j in range(i + 1, len(goals)):
            if culprit_sets[i] & variable_sets[j] or culprit_sets[j] & variable_sets[i]:
                constraints.add((i, j))
    return constraints
