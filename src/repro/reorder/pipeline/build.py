"""Per-predicate version building and the reordering it drives.

Goal-sequence reordering (§III-B/§VI-A), inner-control reordering
(§IV-D-2/5/6), §V-D runtime guards, and the per-mode version build that
calls them. Every function takes the running
:class:`~repro.reorder.pipeline.runner.ReorderPipeline` first; the
operation order is what the golden fixtures in ``tests/reorder/golden/``
pin, so it is load bearing.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ...analysis.modes import (
    Mode,
    ModeItem,
    VarState,
    bind_head_states,
    call_mode,
)
from ...markov.clause_model import SequenceEvaluation
from ...markov.goal_stats import GoalStats
from ...prolog.database import Clause, body_goals, goals_to_body
from ...prolog.terms import Atom, Struct, Term, deref, functor_indicator
from ..clause_order import ClauseRanking, order_clauses
from ..goal_search import find_best_order
from ..restrictions import order_constraints, partition_body
from ..specialize import rename_goal, specialized_name
from .types import MAX_VERSIONS, Indicator, ModeVersion

__all__ = [
    "VersionBuildPhase",
    "add_runtime_guards",
    "reorder_clause_goals",
    "reorder_goal_sequence",
    "reorder_inner_control",
]


def reorder_goal_sequence(
    pipeline,
    indicator: Indicator,
    mode: Mode,
    body: Term,
    states: VarState,
    multi_default: bool = True,
) -> Tuple[List[Term], bool]:
    """Block-partition one conjunction and search every mobile block
    for its cheapest legal order, advancing ``states`` in place.

    Returns the reordered goals and False when some block had no legal
    order. ``multi_default=False`` ranks every block by the
    single-solution chain (for contexts that need only the first
    answer, e.g. inside negation).
    """
    reorderer = pipeline.reorderer
    options, model = reorderer.options, reorderer.model
    partition = partition_body(body, reorderer.fixity)
    new_goals: List[Term] = []
    legal = True
    for block in partition.blocks:
        multi = block.multi_solution and multi_default
        if not block.mobile or not options.reorder_goals or len(block) <= 1:
            evaluation = model.evaluate_goals(block.goals, states)
            if evaluation is None:
                legal = False
            new_goals.extend(block.goals)
            continue
        constraints = order_constraints(block.goals, reorderer.semifixity, states)
        with reorderer.spans.span("goal search"):
            result = find_best_order(
                block.goals,
                states,
                model,
                constraints,
                multi_solution=multi,
                exhaustive_limit=options.exhaustive_limit,
                counters=reorderer.search_counters,
                node_budget=options.astar_node_budget,
                budget=pipeline.budget,
            )
        if result is None:
            reorderer.report.note(
                indicator, mode,
                f"no legal order for a {len(block)}-goal block; kept source order",
            )
            model.evaluate_goals(block.goals, states)
            new_goals.extend(block.goals)
            legal = False
            continue
        if result.order != tuple(range(len(block.goals))):
            reorderer.report.note(
                indicator, mode,
                f"goals reordered to {[i + 1 for i in result.order]} "
                f"({result.strategy}, {result.explored} orders examined)",
            )
        new_goals.extend(block.goals[i] for i in result.order)
        states.clear()
        states.update(result.states)
    return new_goals, legal


def reorder_inner_control(
    pipeline, indicator: Indicator, mode: Mode, goals: List[Term], states: VarState
) -> List[Term]:
    """Reorder the conjunctions *inside* negation, the set predicates,
    and disjunction halves of an already-reordered goal list ("we
    reorder multiple goals within its argument", "we reorder the
    internal goals"). One nesting level; deeper structure is left as
    written."""
    rebuilt: List[Term] = []
    for goal in goals:
        rebuilt.append(_reorder_compound(pipeline, indicator, mode, goal, states))
        pipeline.reorderer.modes.abstract_execute(goal, states)
    return rebuilt


def _reorder_compound(
    pipeline, indicator: Indicator, mode: Mode, goal: Term, states: VarState
) -> Term:
    goal_deref = deref(goal)
    if not isinstance(goal_deref, Struct):
        return goal
    name, arity = goal_deref.name, goal_deref.arity
    if name in ("\\+", "not", "once") and arity == 1:
        # Only the first solution of the argument matters.
        inner = _reorder_subbody(
            pipeline, indicator, mode, goal_deref.args[0], dict(states), multi=False
        )
        return Struct(name, (inner,))
    if name in ("findall", "bagof", "setof") and arity == 3:
        rebuilt = _reorder_caret_body(
            pipeline, indicator, mode, goal_deref.args[1], dict(states)
        )
        return Struct(name, (goal_deref.args[0], rebuilt, goal_deref.args[2]))
    if name == ";" and arity == 2:
        left = deref(goal_deref.args[0])
        if isinstance(left, Struct) and left.name == "->" and left.arity == 2:
            # The premise is immobile "exactly like goals before a
            # cut" (§IV-D-3); then/else halves reorder.
            condition_states = dict(states)
            pipeline.reorderer.modes.abstract_execute(left.args[0], condition_states)
            then_part = _reorder_subbody(
                pipeline, indicator, mode, left.args[1], condition_states
            )
            else_part = _reorder_subbody(
                pipeline, indicator, mode, goal_deref.args[1], dict(states)
            )
            return Struct(";", (Struct("->", (left.args[0], then_part)), else_part))
        left_part = _reorder_subbody(
            pipeline, indicator, mode, goal_deref.args[0], dict(states)
        )
        right_part = _reorder_subbody(
            pipeline, indicator, mode, goal_deref.args[1], dict(states)
        )
        return Struct(";", (left_part, right_part))
    return goal


def _reorder_subbody(
    pipeline,
    indicator: Indicator,
    mode: Mode,
    body: Term,
    states: VarState,
    multi: bool = True,
) -> Term:
    goals, _legal = reorder_goal_sequence(
        pipeline, indicator, mode, body, states, multi_default=multi
    )
    return goals_to_body(goals)


def _reorder_caret_body(
    pipeline, indicator: Indicator, mode: Mode, term: Term, states: VarState
) -> Term:
    term_deref = deref(term)
    if (
        isinstance(term_deref, Struct)
        and term_deref.name == "^"
        and term_deref.arity == 2
    ):
        return Struct(
            "^",
            (
                term_deref.args[0],
                _reorder_caret_body(
                    pipeline, indicator, mode, term_deref.args[1], states
                ),
            ),
        )
    return _reorder_subbody(pipeline, indicator, mode, term, states)


def reorder_clause_goals(
    pipeline, indicator: Indicator, clause: Clause, mode: Mode
) -> Tuple[List[Term], Optional[SequenceEvaluation]]:
    """Reorder one clause body for one input mode.

    Returns the new goal list (original predicate names — renaming
    happens later) and the chain evaluation of the new order."""
    reorderer = pipeline.reorderer
    states: VarState = {}
    bind_head_states(clause.head, mode, states)
    new_goals, legal = reorder_goal_sequence(
        pipeline, indicator, mode, clause.body, states
    )
    if reorderer.options.reorder_goals:
        inner_states: VarState = {}
        bind_head_states(clause.head, mode, inner_states)
        new_goals = reorder_inner_control(
            pipeline, indicator, mode, new_goals, inner_states
        )
    evaluation = (
        reorderer.model.clause_body_evaluation(
            Clause(clause.head, goals_to_body(new_goals)), mode
        )
        if legal
        else None
    )
    return new_goals, evaluation


def add_runtime_guards(
    pipeline,
    indicator: Indicator,
    clauses: Sequence[Clause],
    version: ModeVersion,
    generic_mode: Mode,
    legal_modes: List[Mode],
) -> None:
    """§V-D: wrap clauses of an in-place version in ``nonvar``-guarded
    if-then-else when the fully-instantiated mode prefers a different
    goal order.

    The guarded clause replaces the version's corresponding clause:
    ``head :- ( nonvar(A1), ... -> optimistic body ; generic body )``.
    Both bodies are the reorderer's output for their respective
    modes, so either branch is safe; the tests cost a few tag
    checks (the paper: "we use the new order and gain efficiency;
    if they fail, we use the original order and lose only the cost
    of the tests").
    """
    optimistic_mode = (ModeItem.PLUS,) * indicator[1]
    if optimistic_mode == generic_mode or optimistic_mode not in legal_modes:
        return
    guarded: List[Clause] = []
    changed = False
    for clause, generic_clause in zip(clauses, version.clauses):
        optimistic_goals, evaluation = reorder_clause_goals(
            pipeline, indicator, clause, optimistic_mode
        )
        generic_goals = body_goals(generic_clause.body)
        optimistic_body = goals_to_body(optimistic_goals)
        if evaluation is None or _same_goal_sequence(optimistic_goals, generic_goals):
            guarded.append(generic_clause)
            continue
        head = deref(clause.head)
        if not isinstance(head, Struct):
            guarded.append(generic_clause)
            continue
        condition = goals_to_body([Struct("nonvar", (arg,)) for arg in head.args])
        body = Struct(
            ";",
            (Struct("->", (condition, optimistic_body)), generic_clause.body),
        )
        guarded.append(Clause(clause.head, body))
        changed = True
    if changed:
        version.clauses = guarded
        pipeline.reorderer.report.note(
            indicator, generic_mode,
            "run-time nonvar tests added (different order when instantiated)",
        )


class VersionBuildPhase:
    """Build every version of one predicate: one per legal mode when
    specialising, one in-place version (optionally runtime-guarded)
    otherwise, verbatim when no legal mode exists.

    A class only so that ``perfbench/layers.py`` can time :meth:`run`.
    """

    @staticmethod
    def run(
        pipeline, indicator: Indicator, modes: List[Mode]
    ) -> Tuple[List[ModeVersion], bool]:
        """The predicate's versions, and whether they are specialised
        (one per mode, to be deduplicated)."""
        reorderer = pipeline.reorderer
        options = reorderer.options
        version_names = reorderer._version_names
        clauses = reorderer.database.clauses(indicator)
        should_specialize = (
            options.specialize
            and indicator[1] > 0
            and 0 < len(modes) <= MAX_VERSIONS
        )
        if not modes:
            # Keep the predicate verbatim (still reachable via output build).
            version = ModeVersion(
                indicator=indicator,
                mode=(),
                name=indicator[0],
                clauses=list(clauses),
                estimate=None,
                original_estimate=None,
            )
            version_names[(indicator, ())] = indicator[0]
            return [version], False
        if not should_specialize:
            mode = _generic_mode(indicator, modes)
            version = _build_version(pipeline, indicator, clauses, mode, rename=False)
            version.name = indicator[0]
            version_names[(indicator, mode)] = indicator[0]
            for other in modes:
                version_names.setdefault((indicator, other), indicator[0])
            if options.runtime_tests and indicator[1] > 0:
                add_runtime_guards(pipeline, indicator, clauses, version, mode, modes)
            return [version], False
        versions = [
            _build_version(pipeline, indicator, clauses, mode, rename=True)
            for mode in modes
        ]
        return versions, True


#: The ranking stats of a clause illegal in the version's mode.
_ILLEGAL = GoalStats(cost=1.0, solutions=0.0, prob=0.0)


def _build_version(
    pipeline,
    indicator: Indicator,
    clauses: Sequence[Clause],
    mode: Mode,
    rename: bool,
) -> ModeVersion:
    reorderer = pipeline.reorderer
    model = reorderer.model
    name = specialized_name(indicator[0], mode) if rename else indicator[0]
    reorderer._version_names[(indicator, mode)] = name
    original_estimate = model.predicate_stats(indicator, mode)
    rankings: List[ClauseRanking] = []
    evaluations: List[Tuple[float, Optional[SequenceEvaluation]]] = []
    # Every fact's body is ``true``: its reordering, evaluation and
    # renaming do not depend on the head, so the first fact's result
    # serves the whole table.
    fact_body: Optional[Tuple[Term, Optional[SequenceEvaluation], GoalStats]] = None
    # Heads keep their source names: dedup renames them only when more
    # than one version survives, and a clause whose body is unchanged
    # (every fact) stays the source clause object.
    matches = model.match_probabilities(indicator, mode)
    for clause, match in zip(clauses, matches):
        if clause.is_fact and fact_body is not None:
            body, evaluation, stats = fact_body
        else:
            new_goals, evaluation = reorder_clause_goals(
                pipeline, indicator, clause, mode
            )
            if rename:
                with reorderer.spans.span("specialize"):
                    new_goals = _rename_goals(reorderer, clause, new_goals, mode)
            body = goals_to_body(new_goals)
            stats = _ILLEGAL if evaluation is None else evaluation.as_goal_stats()
            if clause.is_fact:
                fact_body = (body, evaluation, stats)
        new_clause = clause if body is clause.body else Clause(clause.head, body)
        evaluations.append((match, evaluation))
        if evaluation is None:
            p, c = 0.0, 1.0
        else:
            p = match * evaluation.p_success
            c = max(match * evaluation.single_cost, 1e-6)
        rankings.append(ClauseRanking(clause=new_clause, stats=stats, p=p, c=c))

    if reorderer.options.reorder_clauses and len(rankings) > 1:
        with reorderer.spans.span("clause order"):
            ordered = order_clauses(rankings, reorderer.fixity)
        if any(r is not s for r, s in zip(ordered, rankings)):
            position = {id(r): i for i, r in enumerate(rankings, start=1)}
            reorderer.report.note(
                indicator, mode,
                "clauses reordered to " + str([position[id(r)] for r in ordered]),
            )
        rankings = ordered

    new_clauses = [ranking.clause for ranking in rankings]
    # Propagate the reordered version's statistics upward so callers
    # are ordered against the costs they will actually see.
    estimate = _combined_stats(evaluations)
    if estimate is not None and model.is_tabled(indicator):
        # Callers of a tabled predicate mostly pay the amortized
        # re-call cost, not the first derivation.
        from ...prolog.tabling.cost import tabled_stats

        estimate = tabled_stats(estimate)
    if estimate is not None:
        model.override_stats(indicator, mode, estimate)
        pipeline.overrides.append((indicator, mode, estimate))
        if (
            original_estimate is not None
            and estimate.cost < original_estimate.cost * 0.999
        ):
            # The paper stores mode, probability and cost with each
            # version; surface the estimated gain in the report.
            reorderer.report.note(
                indicator, mode,
                f"estimated cost {original_estimate.cost:.1f} -> "
                f"{estimate.cost:.1f} "
                f"(p {original_estimate.prob:.2f} -> {estimate.prob:.2f})",
            )
    return ModeVersion(
        indicator=indicator,
        mode=mode,
        name=name,
        clauses=new_clauses,
        estimate=estimate,
        original_estimate=original_estimate,
    )


def _rename_goals(
    reorderer, clause: Clause, goals: List[Term], mode: Mode
) -> List[Term]:
    """Rename subgoals to their mode-specialised versions."""
    if not reorderer.options.specialize:
        return goals
    states: VarState = {}
    bind_head_states(clause.head, mode, states)
    renamed: List[Term] = []
    for goal in goals:
        target = _rename_one(reorderer, goal, states)
        reorderer.modes.abstract_execute(goal, states)
        renamed.append(target)
    return renamed


#: Control constructs whose goal arguments are renamed recursively
#: (position tuples index the goal-valued arguments).
_CONTROL_GOAL_ARGS = {
    ("\\+", 1): (0,),
    ("not", 1): (0,),
    ("call", 1): (0,),
    ("once", 1): (0,),
}


def _rename_one(reorderer, goal: Term, states: VarState) -> Term:
    """Rename a goal (recursively through control constructs) to the
    specialised versions matching its call modes. ``states`` is not
    mutated; the caller advances it afterwards. Renaming is purely
    an optimisation — unrenamed calls go through the (correct)
    dispatcher — so any part we cannot track stays as written."""
    goal_deref = deref(goal)
    if not isinstance(goal_deref, (Atom, Struct)):
        return goal
    modes = reorderer.modes
    if isinstance(goal_deref, Struct):
        name, arity = goal_deref.name, goal_deref.arity
        if name == "," and arity == 2:
            left = _rename_one(reorderer, goal_deref.args[0], states)
            after_left = dict(states)
            modes.abstract_execute(goal_deref.args[0], after_left)
            right = _rename_one(reorderer, goal_deref.args[1], after_left)
            return Struct(",", (left, right))
        if name == ";" and arity == 2:
            first = deref(goal_deref.args[0])
            if isinstance(first, Struct) and first.name == "->" and first.arity == 2:
                condition = _rename_one(reorderer, first.args[0], states)
                after_condition = dict(states)
                modes.abstract_execute(first.args[0], after_condition)
                then_part = _rename_one(reorderer, first.args[1], after_condition)
                else_part = _rename_one(reorderer, goal_deref.args[1], dict(states))
                return Struct(";", (Struct("->", (condition, then_part)), else_part))
            left = _rename_one(reorderer, goal_deref.args[0], dict(states))
            right = _rename_one(reorderer, goal_deref.args[1], dict(states))
            return Struct(";", (left, right))
        if name == "->" and arity == 2:
            condition = _rename_one(reorderer, goal_deref.args[0], states)
            after_condition = dict(states)
            modes.abstract_execute(goal_deref.args[0], after_condition)
            then_part = _rename_one(reorderer, goal_deref.args[1], after_condition)
            return Struct("->", (condition, then_part))
        control = _CONTROL_GOAL_ARGS.get((name, arity))
        if control is not None:
            args = list(goal_deref.args)
            for position in control:
                args[position] = _rename_one(reorderer, args[position], dict(states))
            return Struct(name, tuple(args))
        if name in ("findall", "bagof", "setof") and arity == 3:
            args = list(goal_deref.args)
            args[1] = _rename_under_carets(reorderer, args[1], dict(states))
            return Struct(name, tuple(args))
    try:
        indicator = functor_indicator(goal_deref)
    except TypeError:
        return goal
    if not reorderer.database.defines(indicator):
        return goal
    goal_mode = call_mode(goal_deref, states)
    if any(item is ModeItem.ANY for item in goal_mode):
        return goal  # unknown instantiation: go through the dispatcher
    target = reorderer._version_names.get((indicator, goal_mode))
    if target is None or target == indicator[0]:
        return goal
    return rename_goal(goal_deref, target)


def _rename_under_carets(reorderer, term: Term, states: VarState) -> Term:
    term_deref = deref(term)
    if (
        isinstance(term_deref, Struct)
        and term_deref.name == "^"
        and term_deref.arity == 2
    ):
        return Struct(
            "^",
            (
                term_deref.args[0],
                _rename_under_carets(reorderer, term_deref.args[1], states),
            ),
        )
    return _rename_one(reorderer, term, states)


def _generic_mode(indicator: Indicator, modes: List[Mode]) -> Mode:
    all_free = (ModeItem.MINUS,) * indicator[1]
    return all_free if all_free in modes else modes[0]


def _combined_stats(
    evaluations: List[Tuple[float, Optional[SequenceEvaluation]]]
) -> Optional[GoalStats]:
    """Predicate stats from per-clause (match prob, evaluation)."""
    total_cost = 1.0
    solutions = 0.0
    miss = 1.0
    any_legal = False
    for match, evaluation in evaluations:
        if evaluation is None or match == 0.0:
            continue
        any_legal = True
        total_cost += match * evaluation.total_cost
        solutions += match * evaluation.solutions
        miss *= 1.0 - match * evaluation.p_success
    if not any_legal:
        return None
    return GoalStats(cost=total_cost, solutions=solutions, prob=1.0 - miss)


def _same_goal_sequence(first: List[Term], second: List[Term]) -> bool:
    if len(first) != len(second):
        return False
    return all(a is b for a, b in zip(first, second))
