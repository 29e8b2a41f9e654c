"""Differential tests: the bytecode VM vs. the seed interpreter.

The default engine (compiled skeletons run on the bytecode VM —
:mod:`repro.prolog.compile`, :mod:`repro.prolog.vm`) must be
observably identical to the interpreted reference path preserved as
``Engine(compiled=False)``: same solutions, in the same order, and the
same deterministic metrics counters. The paper's cost model consumes
those counters, so "same answers but different charge" would silently
corrupt every calibration downstream.

Coverage: all bundled benchmark programs (the paper's §VII evaluation
set) across their table queries, the tabling suite, and the control
constructs the VM lowers to bytecode — cut, disjunction, if-then-else
and negation as failure, the reorderer's mode-test dispatchers, and
exceptions, solution limits and budget aborts inside their branches.

The second half compares *evaluation strategies*: bottom-up semi-naive
materialization (``Engine(eval_strategy="bottomup")``) must produce
answer sets identical **as sets** to top-down SLD on every bundled
program and on randomized join programs (bottom-up deduplicates and
reorders answers, so order and multiplicity legitimately differ), and
``eval_strategy="topdown"`` must be byte-identical to the default
engine — answers *and* every deterministic counter.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import ReproError
from repro.programs import REGISTRY, corporate, family_tree
from repro.prolog import Database, Engine
from repro.prolog.vm import solve_vm
from repro.reorder import Reorderer
from repro.robustness import Budget

#: The deterministic counters both paths must agree on.
COMPARED_COUNTERS = (
    "calls",
    "unifications",
    "clause_entries",
    "backtracks",
    "table_hits",
    "table_misses",
    "table_answers",
    "tables_completed",
)


def assert_equivalent(source, query, limit=None, budget_calls=None):
    """Two-way oracle: the bytecode VM vs the seed interpreter.

    The default (compiled) engine must be observably identical to the
    interpreter: answers in the same order, the same shared counters
    and per-predicate calls, and — for a query aborted by
    ``Budget(calls=...)`` — the same error at the same charge.
    """
    machine = Engine.from_source(source)
    reference = Engine.from_source(source, compiled=False)
    assert machine.compiled and not reference.compiled

    outcomes = []
    for engine in (machine, reference):
        budget = None if budget_calls is None else Budget(calls=budget_calls)
        try:
            solutions = engine.ask(query, limit=limit, budget=budget)
        except ReproError as exc:
            outcomes.append(type(exc).__name__)
        else:
            outcomes.append([s.key() for s in solutions])
    assert outcomes[0] == outcomes[1], f"solution drift on {query!r}"

    left, right = machine.metrics, reference.metrics
    for counter in COMPARED_COUNTERS:
        assert getattr(left, counter) == getattr(right, counter), (
            f"{counter} drift on {query!r}: "
            f"vm={getattr(left, counter)} "
            f"interpreted={getattr(right, counter)}"
        )
    assert left.calls_by_predicate == right.calls_by_predicate
    return machine


class TestBundledPrograms:
    @pytest.mark.parametrize("label, query", corporate.TABLE3_QUERIES)
    def test_corporate(self, label, query):
        assert_equivalent(corporate.source(), query)

    @pytest.mark.parametrize("name, arity", family_tree.TESTED_PREDICATES)
    def test_family_tree(self, name, arity):
        variables = ", ".join(f"V{i}" for i in range(arity))
        assert_equivalent(family_tree.source(), f"{name}({variables})")

    @pytest.mark.parametrize(
        "program", ["meal", "p58", "team", "kmbench"]
    )
    def test_table4_programs(self, program):
        module = REGISTRY[program]
        for _, queries in module.TABLE4_QUERIES:
            # The fully-instantiated meal sweep has 25 queries; a
            # slice keeps the suite fast without losing the mode.
            for query in queries[:5]:
                assert_equivalent(module.source(), query)

    def test_geography(self):
        geography = REGISTRY["geography"]
        for _, query in geography.QUESTIONS:
            assert_equivalent(geography.source(), query)


class TestControlConstructs:
    def test_cut_in_clause_body(self):
        source = """
            first(X) :- member(X, [a, b, c]), !.
            member(X, [X|_]).
            member(X, [_|T]) :- member(X, T).
        """
        assert_equivalent(source, "first(X)")

    def test_cut_commits_clause_choice(self):
        source = """
            grade(N, fail) :- N < 60, !.
            grade(N, pass) :- N < 90, !.
            grade(_, ace).
        """
        for n in (40, 75, 95):
            assert_equivalent(source, f"grade({n}, G)")

    def test_if_then_else_body(self):
        source = """
            sign(N, neg) :- (N < 0 -> true ; fail).
            sign(N, pos) :- (N < 0 -> fail ; true).
            classify(N, S) :- (N =:= 0 -> S = zero ; sign(N, S)).
        """
        for n in (-3, 0, 7):
            assert_equivalent(source, f"classify({n}, S)")

    def test_negation_in_body(self):
        source = """
            likes(alice, prolog).
            likes(bob, lisp).
            person(alice). person(bob). person(carol).
            dislikes_prolog(P) :- person(P), \\+ likes(P, prolog).
        """
        assert_equivalent(source, "dislikes_prolog(P)")

    def test_disjunction_body(self):
        source = """
            p(1). p(2).
            q(3). q(4).
            r(X) :- (p(X) ; q(X)).
        """
        assert_equivalent(source, "r(X)")

    def test_deep_conjunction_with_backtracking(self):
        source = """
            d(1). d(2). d(3).
            pick(A, B, C, D) :- d(A), d(B), d(C), d(D), A < B, B < C, C < D.
            pick2(A, B, C) :- d(A), d(B), d(C), A < B, B < C.
        """
        assert_equivalent(source, "pick2(A, B, C)")
        assert_equivalent(source, "pick(A, B, C, D)")

    def test_true_goals_in_body(self):
        # Compile-time drops ``true`` body goals; the interpreted path
        # solves them as builtins. Charges must still agree (the
        # engine never charged ``true`` either way).
        source = "p(X) :- true, q(X), true.\nq(1). q(2)."
        assert_equivalent(source, "p(X)")

    def test_variable_body_goal(self):
        source = "call_it(G) :- G.\np(1). p(2)."
        assert_equivalent(source, "call_it(p(X))")


    def test_cut_in_disjunction_branch_prunes_the_clause(self):
        source = """
            q(1). q(2). q(3).
            p(X) :- (q(X), X > 1, ! ; X = none).
            p(last).
        """
        assert_equivalent(source, "p(X)")

    def test_cut_in_condition_stays_local(self):
        source = """
            q(1). q(2). q(3).
            t(X, Y) :- (q(X), !, X > 1 -> Y = yes ; Y = no).
            t(other, other).
        """
        assert_equivalent(source, "t(X, Y)")

    def test_cut_in_negation_stays_local(self):
        source = """
            q(1). q(2). q(3).
            n(X) :- q(X), \\+ (q(Y), !, Y > X).
            n(last).
        """
        assert_equivalent(source, "n(X)")

    def test_if_then_without_else(self):
        source = """
            q(1). q(2). q(3).
            it(X) :- (q(X), X > 1 -> true).
            it(0).
            none(X) :- (q(X), X > 5 -> true).
        """
        assert_equivalent(source, "it(X)")
        assert_equivalent(source, "none(X)")

    def test_nested_control_and_delegated_cut(self):
        # A variable goal bound to a cut inside a condition is local to
        # the condition; inside a disjunction it cuts the clause.
        source = """
            q(1). q(2). q(3).
            vc(X, Y) :- G = !, (q(X), G, X > 1 -> Y = yes ; Y = no).
            vd(X) :- G = !, (q(X), G ; X = none).
            mix(X, Y) :- q(X), ((X =:= 2 ; X =:= 3) -> \\+ X = 3, Y = a ; Y = b).
        """
        for query in ("vc(X, Y)", "vd(X)", "mix(X, Y)"):
            assert_equivalent(source, query)

    def test_exception_raised_inside_a_branch(self):
        source = """
            q(1). q(2). q(3).
            err(X) :- q(X), (X > 1 -> throw(boom(X)) ; true).
            caught(X, E) :- catch(err(X), E, true).
            neg_err(X) :- q(X), \\+ (X > 2, throw(late(X))).
        """
        for query in ("err(X)", "caught(X, E)", "neg_err(X)"):
            assert_equivalent(source, query)

    @pytest.mark.parametrize("query", ["d(X)", "ite(X, Y)", "neg(X)", "path(a, Y)"])
    def test_aborts_mid_branch_leave_the_engine_reusable(self, query):
        source = """
            :- table path/2.
            q(1). q(2). q(3).
            d(X) :- (q(X), X > 1 ; X = none).
            ite(X, Y) :- (q(X), X >= 2 -> Y = big ; q(Y)).
            neg(X) :- q(X), \\+ X = 2.
            edge(a, b). edge(b, c). edge(c, a).
            path(X, Y) :- (edge(X, Y) ; path(X, Z), edge(Z, Y)).
        """
        machine = assert_equivalent(source, query, limit=1)
        assert machine.trail.mark() == 0
        assert_equivalent(source, query, budget_calls=3)
        # Same engine again: trail unwound, tables intact, full answers
        # and charges still equal to a fresh interpreter's.
        for limit, budget_calls in ((1, None), (None, 3)):
            engine = Engine.from_source(source)
            budget = None if budget_calls is None else Budget(calls=budget_calls)
            try:
                engine.ask(query, limit=limit, budget=budget)
            except ReproError:
                pass
            assert engine.trail.mark() == 0
            assert engine._negation_depth == 0
            reference = Engine.from_source(source, compiled=False)
            assert [s.key() for s in engine.ask(query)] == [
                s.key() for s in reference.ask(query)
            ]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_reordered_dispatchers_on_generated_long_bodies(self, seed):
        # The reorderer's mode-test dispatchers (if-then-else chains of
        # var/1 tests) over generated long bodies with negation and cut.
        source = _long_body_program(random.Random(seed))
        reordered = Reorderer(Database.from_source(source)).reorder().source()
        assert "->" in reordered
        for rule in range(3):
            for query in (f"r{rule}(X, Y)", f"r{rule}(c1, Y)",
                          f"r{rule}(X, c2)", f"r{rule}(c1, c2)"):
                assert_equivalent(reordered, query)


def _long_body_program(rng):
    """Three rules with 4-6-goal bodies over four binary fact tables;
    two of them end in a negation or a cut."""
    lines = []
    for table in range(4):
        pairs = {(rng.randrange(6), rng.randrange(6)) for _ in range(12)}
        lines.extend(f"t{table}(c{a}, c{b})." for a, b in sorted(pairs))
    for rule in range(3):
        variables = ["X"]
        goals = []
        length = rng.choice((4, 5, 6))
        for index in range(length):
            left = rng.choice(variables)
            right = "Y" if index == length - 1 else f"V{index}"
            variables.append(right)
            goals.append(f"t{rng.randrange(4)}({left}, {right})")
        if rule == 1:
            goals.append(f"\\+ t{rng.randrange(4)}({variables[1]}, c0)")
        elif rule == 2:
            goals.append("!")
        lines.append(f"r{rule}(X, Y) :- " + ", ".join(goals) + ".")
    return "\n".join(lines) + "\n"


class TestTabling:
    def test_left_recursive_closure(self):
        source = """
            :- table path/2.
            edge(a, b). edge(b, c). edge(c, d). edge(b, d).
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- path(X, Z), edge(Z, Y).
        """
        assert_equivalent(source, "path(a, Where)")

    def test_mutual_recursion(self):
        source = """
            :- table even/1.
            :- table odd/1.
            even(0).
            even(N) :- N > 0, M is N - 1, odd(M).
            odd(N) :- N > 0, M is N - 1, even(M).
        """
        assert_equivalent(source, "even(8)")

    def test_tabled_with_nontabled_helpers(self):
        source = """
            :- table reach/2.
            arc(1, 2). arc(2, 3). arc(3, 1). arc(3, 4).
            hop(X, Y) :- arc(X, Y).
            reach(X, Y) :- hop(X, Y).
            reach(X, Y) :- reach(X, Z), hop(Z, Y).
        """
        assert_equivalent(source, "reach(1, N)")

    def test_tabled_producer_with_control_runs_on_the_machine(self):
        # The producer pass of a tabled closure whose clause is a
        # disjunction with an if-then-else and a negation: the VM runs
        # it (engine._solve_user is the machine), and answers and table
        # counters match the interpreter's.
        source = """
            :- table reach/2.
            arc(1, 2). arc(2, 3). arc(3, 1). arc(3, 4). blocked(4).
            reach(X, Y) :- (arc(X, Y), \\+ blocked(Y) -> true
                           ; reach(X, Z), arc(Z, Y)).
        """
        machine = assert_equivalent(source, "reach(1, N)")
        assert machine._solve_user.func is solve_vm
        assert machine.metrics.tables_completed > 0


_CONSTANTS = ["a", "b", "c", "0", "1", "2", "f(a)", "f(b)", "g(a, b)"]


class TestPropertyDifferential:
    @settings(max_examples=40, deadline=None)
    @given(
        facts=st.lists(
            st.tuples(
                st.sampled_from(_CONSTANTS), st.sampled_from(_CONSTANTS)
            ),
            min_size=1,
            max_size=12,
        ),
        first=st.sampled_from(_CONSTANTS + ["X"]),
        second=st.sampled_from(_CONSTANTS + ["Y"]),
    )
    def test_random_join_program(self, facts, first, second):
        # Random fact tables under a two-literal join rule, queried in
        # every binding mode: the compiled path must agree with the
        # reference path on answers, order, and charges.
        source = "\n".join(f"p({a}, {b})." for a, b in facts)
        source += "\nj(A, C) :- p(A, B), p(B, C).\n"
        assert_equivalent(source, f"j({first}, {second})")


def assert_same_answer_set(source, query):
    """Bottom-up and top-down answer sets must be identical *as sets*.

    Bottom-up materialization deduplicates (a relation stores each fact
    once) and enumerates in relation order, so answer order and
    multiplicity may differ from SLD; the set of bindings may not.
    """
    topdown = Engine.from_source(source)
    bottomup = Engine.from_source(source, eval_strategy="bottomup")
    topdown_set = {s.key() for s in topdown.ask(query)}
    bottomup_set = {s.key() for s in bottomup.ask(query)}
    assert bottomup_set == topdown_set, f"answer-set drift on {query!r}"


class TestBottomUpDifferential:
    @pytest.mark.parametrize("label, query", corporate.TABLE3_QUERIES)
    def test_corporate(self, label, query):
        assert_same_answer_set(corporate.source(), query)

    @pytest.mark.parametrize("name, arity", family_tree.TESTED_PREDICATES)
    def test_family_tree(self, name, arity):
        variables = ", ".join(f"V{i}" for i in range(arity))
        assert_same_answer_set(family_tree.source(), f"{name}({variables})")

    @pytest.mark.parametrize(
        "program", ["meal", "p58", "team", "kmbench"]
    )
    def test_table4_programs(self, program):
        module = REGISTRY[program]
        for _, queries in module.TABLE4_QUERIES:
            for query in queries[:3]:
                assert_same_answer_set(module.source(), query)

    def test_geography(self):
        geography = REGISTRY["geography"]
        for _, query in geography.QUESTIONS:
            assert_same_answer_set(geography.source(), query)

    def test_recursive_closure_all_modes(self):
        # Cyclic graph: plain SLD diverges, so the top-down reference
        # runs tabled; the bottom-up dispatcher claims path/2 before
        # the tabling check, so the same source exercises both.
        source = """
            :- table path/2.
            edge(a, b). edge(b, c). edge(c, d). edge(b, d). edge(d, a).
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- edge(X, Y), path(Y, Z).
        """
        for query in ("path(a, X)", "path(X, d)", "path(X, Y)", "path(a, d)"):
            assert_same_answer_set(source, query)

    def test_stratified_negation(self):
        # The recursion sits after the edge/2 binder so SLD terminates
        # on the acyclic graph; bottom-up evaluates reach/1 then the
        # negation stratum on top of the materialized relation.
        source = """
            node(a). node(b). node(c). node(d).
            edge(a, b). edge(b, c).
            reach(X) :- edge(a, X).
            reach(Y) :- edge(X, Y), reach(X).
            unreached(X) :- node(X), \\+ reach(X).
        """
        assert_same_answer_set(source, "reach(X)")
        assert_same_answer_set(source, "unreached(X)")

    def test_topdown_strategy_counters_byte_identical(self):
        # eval_strategy="topdown" must construct no dispatcher and
        # charge exactly what the default engine charges.
        for program, query in (
            (family_tree.source(), "aunt(A, B)"),
            (corporate.source(), corporate.TABLE3_QUERIES[0][1]),
        ):
            default = Engine.from_source(program)
            explicit = Engine.from_source(program, eval_strategy="topdown")
            assert explicit._bottomup is None
            default_solutions = default.ask(query)
            explicit_solutions = explicit.ask(query)
            assert [s.key() for s in default_solutions] == [
                s.key() for s in explicit_solutions
            ]
            for counter in COMPARED_COUNTERS:
                assert getattr(default.metrics, counter) == getattr(
                    explicit.metrics, counter
                )
            assert (
                default.metrics.calls_by_predicate
                == explicit.metrics.calls_by_predicate
            )

    @settings(max_examples=40, deadline=None)
    @given(
        facts=st.lists(
            st.tuples(
                st.sampled_from(_CONSTANTS), st.sampled_from(_CONSTANTS)
            ),
            min_size=1,
            max_size=12,
        ),
        first=st.sampled_from(_CONSTANTS + ["X"]),
        second=st.sampled_from(_CONSTANTS + ["Y"]),
    )
    def test_random_join_same_answer_set(self, facts, first, second):
        # The bottom-up hash join over randomized fact tables must
        # agree with SLD enumeration in every binding mode, as sets.
        source = "\n".join(f"p({a}, {b})." for a, b in facts)
        source += "\nj(A, C) :- p(A, B), p(B, C).\n"
        assert_same_answer_set(source, f"j({first}, {second})")


class TestSolutionSnapshots:
    def test_shared_variable_stays_shared(self):
        # Regression: the snapshot in ``Engine.solve`` must rename all
        # query variables through ONE mapping, so two variables bound
        # to the same unbound variable still share it in the Solution.
        engine = Engine.from_source("always.")
        [solution] = engine.ask("X = f(Z), Y = Z")
        inner = solution["X"].args[0]
        assert solution["Y"] is inner

    def test_shared_variable_interpreted_path(self):
        engine = Engine.from_source("always.", compiled=False)
        [solution] = engine.ask("X = f(Z), Y = Z")
        assert solution["Y"] is solution["X"].args[0]

    def test_independent_solutions_not_shared(self):
        engine = Engine.from_source("p(1). p(2).")
        one, two = engine.ask("p(X)")
        assert one["X"] == 1 and two["X"] == 2
