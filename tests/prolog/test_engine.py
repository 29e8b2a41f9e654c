"""Unit and behavioural tests for the SLD engine: resolution order,
backtracking, cut, control constructs, error handling, metrics."""

import pytest

from repro.errors import (
    CallBudgetExceeded,
    DepthLimitExceeded,
    ExistenceError,
    InstantiationError,
)
from repro.prolog import Engine
from repro.prolog.terms import Atom
from repro.robustness import Budget


FAMILY = """
parent(tom, bob).  parent(tom, liz).
parent(bob, ann).  parent(bob, pat).
parent(pat, jim).

grand(X, Z) :- parent(X, Y), parent(Y, Z).

anc(X, Y) :- parent(X, Y).
anc(X, Z) :- parent(X, Y), anc(Y, Z).
"""


def engine(source=FAMILY, **kwargs):
    return Engine.from_source(source, **kwargs)


def answers(eng, query, var):
    return [str(s[var]) for s in eng.ask(query)]


class TestResolution:
    def test_fact_query(self):
        assert engine().succeeds("parent(tom, bob)")

    def test_fact_failure(self):
        assert not engine().succeeds("parent(bob, tom)")

    def test_binding(self):
        assert answers(engine(), "parent(tom, X)", "X") == ["bob", "liz"]

    def test_rule(self):
        assert answers(engine(), "grand(tom, X)", "X") == ["ann", "pat"]

    def test_recursion(self):
        assert answers(engine(), "anc(tom, X)", "X") == [
            "bob", "liz", "ann", "pat", "jim",
        ]

    def test_clause_order_is_source_order(self):
        eng = engine("v(c). v(a). v(b).")
        assert answers(eng, "v(X)", "X") == ["c", "a", "b"]

    def test_goal_order_left_to_right(self):
        eng = engine("a(1). a(2). b(2). pair(X) :- a(X), b(X).")
        assert answers(eng, "pair(X)", "X") == ["2"]

    def test_conjunction_backtracking(self):
        eng = engine("n(1). n(2). n(3).")
        solutions = eng.ask("n(X), n(Y), X < Y")
        pairs = [(str(s["X"]), str(s["Y"])) for s in solutions]
        assert pairs == [("1", "2"), ("1", "3"), ("2", "3")]

    def test_undefined_predicate_raises(self):
        with pytest.raises(ExistenceError):
            engine().succeeds("nothing_here(X)")

    def test_variable_goal_raises(self):
        with pytest.raises(InstantiationError):
            engine().succeeds("G")

    def test_shared_variables_across_goals(self):
        eng = engine("e(a, b). e(b, c). path2(X, Z) :- e(X, Y), e(Y, Z).")
        assert answers(eng, "path2(a, Z)", "Z") == ["c"]


class TestCut:
    def test_cut_commits_to_clause(self):
        eng = engine("f(1) :- !. f(2).")
        assert answers(eng, "f(X)", "X") == ["1"]

    def test_cut_commits_bindings_to_left(self):
        eng = engine("n(1). n(2). first(X) :- n(X), !.")
        assert answers(eng, "first(X)", "X") == ["1"]

    def test_cut_only_in_selected_clause(self):
        eng = engine("g(a). g(b) :- !. g(c).")
        assert answers(eng, "g(X)", "X") == ["a", "b"]

    def test_goals_after_cut_backtrack_normally(self):
        eng = engine("n(1). n(2). h(X) :- !, n(X).")
        assert answers(eng, "h(X)", "X") == ["1", "2"]

    def test_cut_transparent_through_disjunction(self):
        eng = engine("d(X) :- (X = 1, ! ; X = 2). d(3).")
        assert answers(eng, "d(X)", "X") == ["1"]

    def test_cut_local_to_called_predicate(self):
        eng = engine("inner :- !. outer(X) :- inner, member_(X, [1, 2]). "
                     "member_(X, [X | _]). member_(X, [_ | T]) :- member_(X, T).")
        assert answers(eng, "outer(X)", "X") == ["1", "2"]

    def test_cut_fails_parent_on_backtrack(self):
        eng = engine("n(1). n(2). once_(X) :- n(X), !. nums(X) :- once_(X).")
        assert answers(eng, "nums(X)", "X") == ["1"]

    def test_if_then_else_condition_is_committed(self):
        eng = engine("n(1). n(2).")
        assert answers(eng, "(n(X) -> Y = hit ; Y = miss)", "X") == ["1"]

    def test_if_then_else_else_branch(self):
        eng = engine("n(1).")
        assert answers(eng, "(n(9) -> Y = hit ; Y = miss)", "Y") == ["miss"]

    def test_bare_if_then_fails_without_else(self):
        eng = engine("n(1).")
        assert not eng.succeeds("(n(9) -> true)")

    def test_negation_as_failure(self):
        eng = engine()
        assert eng.succeeds("\\+ parent(bob, tom)")
        assert not eng.succeeds("\\+ parent(tom, bob)")

    def test_not_spelling(self):
        assert engine().succeeds("not(parent(bob, tom))")

    def test_negation_leaves_no_bindings(self):
        eng = engine(FAMILY + "q(X) :- \\+ parent(X, zzz), X = ok.")
        assert answers(eng, "q(X)", "X") == ["ok"]


class TestFailureDrivenLoop:
    def test_show_all(self):
        eng = engine(
            "t(1). t(2). t(3). show :- t(X), write(X), nl, fail. show."
        )
        assert eng.succeeds("show")
        assert eng.output_text() == "1\n2\n3\n"


class TestSafetyBounds:
    def test_depth_limit(self):
        eng = engine("loop :- loop.", max_depth=50)
        with pytest.raises(DepthLimitExceeded):
            eng.succeeds("loop")

    def test_call_budget(self):
        eng = engine(budget=Budget(calls=3))
        with pytest.raises(CallBudgetExceeded):
            eng.count_solutions("anc(tom, X)")

    def test_infinite_mode_detected(self):
        # delete/3 with only its first argument bound: infinitely many
        # answers — the paper's example of a mode that must be avoided.
        # Depending on which bound trips first the engine reports a depth
        # or budget overrun; either way the illegal mode is caught.
        eng = engine(
            "delete(X, [X | Y], Y). delete(U, [X | Y], [X | V]) :- delete(U, Y, V).",
            budget=Budget(calls=2_000),
        )
        with pytest.raises((CallBudgetExceeded, DepthLimitExceeded)):
            eng.count_solutions("delete(a, L, R)")


class TestMetrics:
    def test_calls_counted(self):
        eng = engine("f(a). f(b).")
        _, metrics = eng.run("f(X)")
        assert metrics.calls == 1  # one call to f/1 (backtracking is free)

    def test_subgoal_calls_counted(self):
        eng = engine("f(a). g :- f(a), f(b).")
        _, metrics = eng.run("g")
        assert metrics.calls == 3  # g, then two f calls

    def test_per_predicate_breakdown(self):
        eng = engine()
        _, metrics = eng.run("grand(tom, X)")
        assert metrics.calls_by_predicate[("grand", 2)] == 1
        assert metrics.calls_by_predicate[("parent", 2)] >= 2

    def test_unifications_counted(self):
        eng = engine("f(a). f(b).")
        eng.database.indexing = False  # so both heads are attempted
        _, metrics = eng.run("f(b)")
        assert metrics.unifications == 2
        assert metrics.clause_entries == 1

    def test_run_isolates_query_cost(self):
        eng = engine()
        _, first = eng.run("parent(tom, X)")
        _, second = eng.run("parent(tom, X)")
        assert first.calls == second.calls

    def test_builtin_calls_counted(self):
        eng = engine("calc(X) :- X is 1 + 1.")
        _, metrics = eng.run("calc(X)")
        assert metrics.calls == 2  # calc/1 and is/2


class TestSolutions:
    def test_solution_snapshot_survives_backtracking(self):
        eng = engine()
        solutions = eng.ask("parent(tom, X)")
        assert [str(s["X"]) for s in solutions] == ["bob", "liz"]

    def test_underscore_vars_hidden(self):
        eng = engine()
        (solution,) = eng.ask("parent(tom, _Who), parent(tom, bob)", limit=1)
        assert "_Who" not in solution

    def test_limit(self):
        assert len(engine().ask("anc(tom, X)", limit=2)) == 2

    def test_solution_equality(self):
        eng = engine()
        first = eng.ask("parent(tom, X)")
        second = eng.ask("parent(tom, X)")
        assert first == second

    def test_solution_key_is_order_insensitive(self):
        eng = engine()
        (sol,) = eng.ask("parent(pat, X)")
        assert isinstance(sol.key(), tuple)

    def test_bool_queries(self):
        eng = engine()
        assert eng.count_solutions("parent(bob, X)") == 2


class TestEngineIndexing:
    def test_indexing_reduces_unifications(self):
        source = "".join(f"num({i}). " for i in range(100))
        indexed = Engine.from_source(source)
        indexed.database.indexing = True
        _, with_index = indexed.run("num(50)")

        plain = Engine.from_source(source)
        plain.database.indexing = False
        _, without = plain.run("num(50)")

        assert with_index.unifications < without.unifications
        assert with_index.calls == without.calls == 1

    def test_same_answers_with_and_without_indexing(self):
        source = "p(a, 1). p(b, 2). p(X, 3)."
        indexed = Engine.from_source(source)
        plain = Engine.from_source(source)
        plain.database.indexing = False
        assert indexed.ask("p(a, N)") == plain.ask("p(a, N)")
