"""Property-based tests of the goal-order search.

Random programs are synthesised whose per-goal statistics are fixed by
``:- cost`` declarations, so the search operates on a known cost
surface. Invariants:

* A* returns an order with the same model cost as exhaustive search
  (optimality of the admissible-prefix best-first search);
* both respect arbitrary (acyclic) precedence constraints;
* the chosen order's model cost is never above the source order's;
* the prefix-sharing, cost-bounded exhaustive search agrees bit for bit
  with a from-scratch evaluation of every permutation (the oracle below),
  down to the cost model's memo and warnings;
* A* on the walk's memo agrees bit for bit with the per-node
  dict-copying A* it replaced (the second oracle), node budget and
  greedy completion included, and ranks every child by exactly the
  float a full evaluation gives, summed left to right even when
  ``sum()`` is compensated.
"""

import dataclasses
import functools
import heapq
import itertools
import math
import random
import types
from typing import Dict, List, Optional, Set, Tuple

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.analysis.declarations import Declarations
from repro.analysis.modes import VarState, bind_head_states, parse_mode_string
from repro.markov import formulas
from repro.markov.clause_model import evaluate_sequence
from repro.markov.goal_stats import GoalStats
from repro.markov.predicate_model import CostModel
from repro.programs import REGISTRY
from repro.prolog import Database, parse_term
from repro.prolog.database import body_goals, split_clause
from repro.reorder import ReorderOptions, Reorderer, goal_search
from repro.reorder.goal_search import (
    OrderResult,
    SearchCounters,
    _rank_cost,
    astar_search,
    exhaustive_search,
)
from tests.prolog.test_compiled_differential import _long_body_program


@st.composite
def cost_programs(draw):
    """(source text, goal count, constraints) with declared costs."""
    goal_count = draw(st.integers(min_value=2, max_value=5))
    lines = []
    for index in range(goal_count):
        cost = draw(st.floats(min_value=0.5, max_value=40.0))
        solutions = draw(st.floats(min_value=0.05, max_value=12.0))
        prob = min(1.0, solutions)
        lines.append(f"g{index}(1).")
        lines.append(
            f":- cost(g{index}/1, [?], {cost:.3f}, {prob:.3f}, {solutions:.3f})."
        )
    body = ", ".join(f"g{i}(X)" for i in range(goal_count))
    lines.append(f"target(X) :- {body}.")
    # Random acyclic constraints: i before j for i < j only.
    constraints = set()
    for i in range(goal_count):
        for j in range(i + 1, goal_count):
            if draw(st.booleans()) and draw(st.booleans()):
                constraints.add((i, j))
    return "\n".join(lines), goal_count, frozenset(constraints)


def _setup(source):
    database = Database.from_source(source)
    model = CostModel(database, Declarations.from_database(database))
    clause = database.clauses(("target", 1))[0]
    goals = body_goals(clause.body)
    states = {}
    bind_head_states(clause.head, parse_mode_string("-"), states)
    return model, goals, states


class TestAStarOptimality:
    @given(cost_programs())
    @settings(max_examples=60, deadline=None)
    def test_astar_matches_exhaustive(self, program):
        source, _, constraints = program
        model, goals, states = _setup(source)
        exhaustive = exhaustive_search(
            goals, dict(states), model, set(constraints)
        )
        astar = astar_search(goals, dict(states), model, set(constraints))
        assert (exhaustive is None) == (astar is None)
        if exhaustive is not None:
            assert astar.evaluation.total_cost == pytest.approx(
                exhaustive.evaluation.total_cost, rel=1e-9
            )

    @given(cost_programs())
    @settings(max_examples=40, deadline=None)
    def test_constraints_respected(self, program):
        source, _, constraints = program
        model, goals, states = _setup(source)
        for search in (exhaustive_search, astar_search):
            result = search(goals, dict(states), model, set(constraints))
            if result is None:
                continue
            position = {g: r for r, g in enumerate(result.order)}
            for before, after in constraints:
                assert position[before] < position[after]

    @given(cost_programs())
    @settings(max_examples=40, deadline=None)
    def test_never_worse_than_source_order(self, program):
        source, goal_count, constraints = program
        model, goals, states = _setup(source)
        result = exhaustive_search(goals, dict(states), model, set(constraints))
        assert result is not None  # declared-cost goals are legal anywhere
        source_eval = model.evaluate_goals(list(goals), dict(states))
        assert result.evaluation.total_cost <= source_eval.total_cost * (1 + 1e-9)

    @given(cost_programs())
    @settings(max_examples=40, deadline=None)
    def test_deterministic(self, program):
        source, _, constraints = program
        model, goals, states = _setup(source)
        first = astar_search(goals, dict(states), model, set(constraints))
        second = astar_search(goals, dict(states), model, set(constraints))
        assert first.order == second.order


# -- differential oracle ------------------------------------------------------


def _oracle_exhaustive_search(
    goals, states, model, constraints, multi_solution=True, counters=None,
    budget=None,
):
    """The from-scratch search: evaluate every constraint-respecting
    permutation in full and keep the first cheapest."""
    def cost(evaluation):
        return evaluation.total_cost if multi_solution else evaluation.single_cost

    best = None
    explored = 0
    for permutation in itertools.permutations(range(len(goals))):
        position = {goal: rank for rank, goal in enumerate(permutation)}
        if not all(position[a] < position[b] for a, b in constraints):
            continue
        explored += 1
        if counters is not None:
            counters.exhaustive_permutations += 1
        scratch = dict(states)
        evaluation = model.evaluate_goals([goals[i] for i in permutation], scratch)
        if evaluation is None:
            if counters is not None:
                counters.exhaustive_illegal += 1
            continue
        if best is None or cost(evaluation) < cost(best.evaluation):
            best = OrderResult(
                order=permutation, evaluation=evaluation, states=scratch,
                explored=explored, strategy="exhaustive",
            )
    if best is not None:
        best.explored = explored
    return best


def _oracle_greedy_complete(
    goals,
    blocked_by: Dict[int, Set[int]],
    order: Tuple[int, ...],
    stats_list: List[GoalStats],
    node_states: VarState,
    model: CostModel,
    multi_solution: bool,
    explored: int,
) -> Optional[OrderResult]:
    """Finish a prefix greedily: cheapest legal goal next, every step.

    The admissible fallback when the A* node budget runs out: the
    prefix handed in is the cheapest open node (its f-value is a lower
    bound on any completion), and the greedy tail keeps every
    mode-legality guarantee — only optimality of the *suffix* is
    surrendered. Ties break toward the lower goal index, keeping the
    fallback deterministic. Returns None from a legality dead end.
    """
    n = len(goals)
    chosen = list(order)
    chosen_stats = list(stats_list)
    states = dict(node_states)
    while len(chosen) < n:
        used = set(chosen)
        best_step: Optional[Tuple[float, int, GoalStats, VarState]] = None
        for candidate in range(n):
            if candidate in used:
                continue
            if blocked_by[candidate] - used:
                continue
            scratch = dict(states)
            stats = model.goal_stats(goals[candidate], scratch)
            if stats is None:
                continue
            explored += 1
            cost = _rank_cost(chosen_stats + [stats], multi_solution)
            if best_step is None or cost < best_step[0]:
                best_step = (cost, candidate, stats, scratch)
        if best_step is None:
            return None
        _, candidate, stats, states = best_step
        chosen.append(candidate)
        chosen_stats.append(stats)
    evaluation = evaluate_sequence(chosen_stats)
    return OrderResult(
        order=tuple(chosen),
        evaluation=evaluation,
        states=states,
        explored=explored,
        strategy="astar-greedy",
    )


def _oracle_astar_search(
    goals,
    states: VarState,
    model: CostModel,
    constraints,
    multi_solution: bool = True,
    counters: Optional[SearchCounters] = None,
    node_budget: Optional[int] = None,
    budget=None,
) -> Optional[OrderResult]:
    """Best-first search over ordered prefixes (Smith & Genesereth / A*).

    ``node_budget`` caps the number of generated children; when it runs
    out, the cheapest open prefix is completed greedily (strategy
    ``astar-greedy``) so the block still gets a legal order instead of
    an unbounded search. ``budget`` adds deadline/cancel checks per
    expansion.

    The A* that copied the state dict and called ``goal_stats`` for
    every child, and re-summed ``sequence_cost`` over the whole prefix.
    """
    n = len(goals)
    blocked_by: Dict[int, Set[int]] = {i: set() for i in range(n)}
    for before, after in constraints:
        blocked_by[after].add(before)

    counter = itertools.count()  # deterministic tie-breaking
    # Heap entries: (cost, tiebreak, order, stats list, states)
    start: Tuple[float, int, Tuple[int, ...], List[GoalStats], VarState] = (
        0.0, next(counter), (), [], dict(states),
    )
    heap = [start]
    explored = 0
    exhausted = False
    while heap:
        cost, _, order, stats_list, node_states = heapq.heappop(heap)
        if budget is not None:
            budget.check("goal_search.astar")
        if node_budget is not None and explored >= node_budget:
            if counters is not None and not exhausted:
                counters.astar_budget_exhausted += 1
            exhausted = True
            # Greedily finish the cheapest open prefixes until one
            # completes legally; every pop is still best-first.
            result = _oracle_greedy_complete(
                goals, blocked_by, order, stats_list, node_states,
                model, multi_solution, explored,
            )
            if result is not None:
                return result
            continue
        if len(order) == n:
            evaluation = evaluate_sequence(stats_list)
            return OrderResult(
                order=order,
                evaluation=evaluation,
                states=node_states,
                explored=explored,
                strategy="astar",
            )
        used = set(order)
        for candidate in range(n):
            if candidate in used:
                continue
            if blocked_by[candidate] - used:
                continue  # a must-precede goal is not placed yet
            explored += 1
            child_states = dict(node_states)
            stats = model.goal_stats(goals[candidate], child_states)
            if stats is None:
                if counters is not None:
                    counters.astar_pruned += 1
                continue  # illegal in this position: prune
            child_stats = stats_list + [stats]
            child_cost = _rank_cost(child_stats, multi_solution)
            if counters is not None:
                counters.astar_expanded += 1
                if child_cost < cost - 1e-9:
                    counters.admissibility_violations += 1
            heapq.heappush(
                heap,
                (
                    child_cost,
                    next(counter),
                    order + (candidate,),
                    child_stats,
                    child_states,
                ),
            )
            if counters is not None and len(heap) > counters.astar_heap_peak:
                counters.astar_heap_peak = len(heap)
    return None


@st.composite
def search_programs(draw):
    """(source, head mode, multi_solution, constraints): goals over three
    shared variables; some demand a bound first argument, so some
    prefixes are mode-illegal, and some are recursive predicates with
    no cost declaration, which make the model warn."""
    goal_count = draw(st.integers(min_value=2, max_value=5))
    variables = ("X", "Y", "Z")
    lines, goals = [], []
    for index in range(goal_count):
        first = draw(st.sampled_from(variables))
        second = draw(st.sampled_from(variables))
        kind = draw(st.sampled_from(("gen", "gen", "guarded", "test", "recursive")))
        if kind == "test":
            goals.append(f"{first} > 0")
            continue
        if kind == "recursive":
            # No cost declaration: the model warns and falls back.
            lines.append(f":- legal_mode(p{index}(+, -)).")
            lines.append(f"p{index}(A, B) :- e(A, B).")
            lines.append(f"p{index}(A, B) :- e(A, C), p{index}(C, B).")
            goals.append(f"p{index}({first}, {second})")
            continue
        cost = draw(st.floats(min_value=0.5, max_value=40.0))
        solutions = draw(st.floats(min_value=0.05, max_value=12.0))
        lines.append(f"g{index}(1, 2).")
        lines.append(
            f":- cost(g{index}/2, [?, ?], {cost:.3f}, "
            f"{min(1.0, solutions):.3f}, {solutions:.3f})."
        )
        if kind == "guarded":
            lines.append(f":- legal_mode(g{index}(+, ?)).")
        goals.append(f"g{index}({first}, {second})")
    lines.extend(["e(1, 2).", "e(2, 3).", "e(3, 1).",
                  "target(X, Y, Z) :- " + ", ".join(goals) + "."])
    head_mode = "".join(draw(st.sampled_from("+-")) for _ in variables)
    constraints = {
        (i, j)
        for i in range(goal_count)
        for j in range(i + 1, goal_count)
        if draw(st.integers(min_value=0, max_value=4)) == 0
    }
    multi_solution = draw(st.booleans())
    return "\n".join(lines), head_mode, multi_solution, frozenset(constraints)


def _run_search(search, database, head_mode, multi_solution, constraints):
    model = CostModel(database, Declarations.from_database(database))
    clause = database.clauses(("target", 3))[0]
    goals = body_goals(clause.body)
    states = {}
    bind_head_states(clause.head, parse_mode_string(head_mode), states)
    counters = SearchCounters()
    result = search(
        goals, states, model, set(constraints), multi_solution, counters
    )
    return result, counters, model


def _float_bits(evaluation):
    return [float(value).hex() for value in dataclasses.astuple(evaluation)]


def _assert_same_search(expected, actual):
    (want, want_counters, want_model), (got, got_counters, got_model) = expected, actual
    assert (got is None) == (want is None)
    if want is not None:
        assert got.order == want.order
        assert got.explored == want.explored
        assert got.strategy == want.strategy
        assert _float_bits(got.evaluation) == _float_bits(want.evaluation)
        assert list(got.states.items()) == list(want.states.items())
    got_dict = got_counters.to_dict()
    assert want_counters.exhaustive_pruned == 0
    got_dict["exhaustive_pruned"] = 0
    assert got_dict == want_counters.to_dict()
    assert list(got_model._memo.items()) == list(want_model._memo.items())
    assert got_model.warnings == want_model.warnings
    assert list(got_model.modes._memo.items()) == list(want_model.modes._memo.items())
    assert got_model.modes.warnings == want_model.modes.warnings


class TestPrefixSharedSearchMatchesOracle:
    @given(search_programs())
    @settings(max_examples=150, deadline=None)
    def test_matches_from_scratch_oracle(self, program):
        source, head_mode, multi_solution, constraints = program
        database = Database.from_source(source)
        _assert_same_search(
            _run_search(_oracle_exhaustive_search, database, head_mode,
                        multi_solution, constraints),
            _run_search(exhaustive_search, database, head_mode,
                        multi_solution, constraints),
        )

    # Cheapest first, then ever dearer generators: once the identity
    # order is ranked, most other prefixes already cost more than it.
    BOUNDED = "\n".join(
        [f"g{i}(1). :- cost(g{i}/1, [?], {0.5 + 9 * i}, 0.5, 0.5)." for i in range(4)]
        + ["target(X, Y, Z) :- g0(X), g1(X), g2(X), g3(Y)."]
    )

    def _bounded(self, multi_solution):
        database = Database.from_source(self.BOUNDED)
        return [
            _run_search(search, database, "---", multi_solution, ())
            for search in (_oracle_exhaustive_search, exhaustive_search)
        ]

    def test_bound_fires_on_multi_solution_block(self):
        expected, actual = self._bounded(True)
        _assert_same_search(expected, actual)
        counters = actual[1]
        assert counters.exhaustive_permutations == 24
        assert 0 < counters.exhaustive_pruned < 24
        assert counters.to_record()["exhaustive_pruned"] == counters.exhaustive_pruned

    def test_no_bound_on_single_solution_block(self):
        expected, actual = self._bounded(False)
        _assert_same_search(expected, actual)
        assert actual[1].exhaustive_permutations == 24
        assert actual[1].exhaustive_pruned == 0


class TestWalkAStarMatchesOracle:
    @given(search_programs())
    @settings(max_examples=150, deadline=None)
    def test_matches_dict_copying_oracle(self, program):
        source, head_mode, multi_solution, constraints = program
        database = Database.from_source(source)
        _assert_same_search(
            _run_search(_oracle_astar_search, database, head_mode,
                        multi_solution, constraints),
            _run_search(astar_search, database, head_mode,
                        multi_solution, constraints),
        )

    @given(search_programs(), st.integers(min_value=0, max_value=12))
    @settings(max_examples=100, deadline=None)
    def test_node_budget_matches_oracle(self, program, node_budget):
        # Small budgets run out mid-search, so the greedy completion runs.
        source, head_mode, multi_solution, constraints = program
        database = Database.from_source(source)
        _assert_same_search(
            _run_search(functools.partial(_oracle_astar_search, node_budget=node_budget),
                        database, head_mode, multi_solution, constraints),
            _run_search(functools.partial(astar_search, node_budget=node_budget),
                        database, head_mode, multi_solution, constraints),
        )

    @given(search_programs())
    @settings(max_examples=100, deadline=None)
    def test_rank_keys_are_full_evaluations_under_compensated_sum(self, program):
        # Python 3.12's sum() is compensated; math.fsum stands in for it
        # on older versions. No ranking may call sum(): a child's heap key
        # must be the float _rank_cost gives its whole prefix, not a
        # running total, and the same float as without the stand-in.
        source, head_mode, multi_solution, constraints = program
        pushed = []

        def heappush(heap, node):
            pushed.append((node[0], node[5]))  # rank and stats: goal_search._Node
            heapq.heappush(heap, node)

        with pytest.MonkeyPatch.context() as patch:
            _patch_compensated_sum(patch)
            patch.setattr(goal_search, "heapq", types.SimpleNamespace(
                heappush=heappush, heappop=heapq.heappop,
            ))
            _run_search(astar_search, Database.from_source(source), head_mode,
                        multi_solution, constraints)
        for key, stats in pushed:
            assert key.hex() == _rank_cost(list(stats), multi_solution).hex()

    def test_rank_keys_sum_left_to_right(self):
        # Terms c_i·v_i of 1, 1e-16 and 1e-16 (p = 1/2 gives v_i = 2):
        # left to right they add up to 1.0, compensated to 1 + 2**-52.
        terms = (1.0, 1e-16, 1e-16)
        assert math.fsum(terms) != 1.0
        stats = [GoalStats(cost=term, solutions=1.0, prob=0.5) for term in terms]
        with pytest.MonkeyPatch.context() as patch:
            _patch_compensated_sum(patch)
            prefix, child_terms, flow = (), (), 1.0
            for goal in stats:
                rank, prefix, child_terms, flow = goal_search._extend(
                    prefix, child_terms, flow, goal, True
                )
            assert child_terms == terms
            assert rank == 1.0
            assert _rank_cost(stats, True) == 1.0


def _patch_compensated_sum(patch):
    """Give the ranking modules a compensated ``sum``, as on Python 3.12+."""
    for module in (goal_search, formulas):
        patch.setattr(module, "sum", math.fsum, raising=False)


def _reorder_with_oracles(source, monkeypatch, options=None):
    def reorder():
        reorderer = Reorderer(Database.from_source(source), options)
        program = reorderer.reorder()
        counters = reorderer.search_counters.to_dict()
        del counters["exhaustive_pruned"]  # the oracle has no bound
        return program.source(), program.report.to_dict(), counters

    actual = reorder()
    monkeypatch.setattr(goal_search, "exhaustive_search", _oracle_exhaustive_search)
    monkeypatch.setattr(goal_search, "astar_search", _oracle_astar_search)
    assert reorder() == actual


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_reorderer_output_matches_oracle_search(seed, monkeypatch):
    _reorder_with_oracles(_long_body_program(random.Random(seed)), monkeypatch)


@pytest.mark.parametrize("name", ["p58", "team", "geography"])
def test_astar_program_output_matches_oracle_search(name, monkeypatch):
    _reorder_with_oracles(REGISTRY[name].source(), monkeypatch)


@pytest.mark.parametrize("node_budget", [1, 7, 50, 400])
def test_p58_node_budget_output_matches_oracle_search(node_budget, monkeypatch):
    _reorder_with_oracles(
        REGISTRY["p58"].source(), monkeypatch,
        ReorderOptions(astar_node_budget=node_budget),
    )
