"""Unit tests for the unfold transformation (§VIII)."""

import pytest

from repro.prolog import Database, Engine, parse_term
from repro.prolog.database import body_goals
from repro.reorder.unfold import (
    UnfoldOptions,
    unfold_clause_goal,
    unfold_program,
)
from repro.reorder.system import ReorderOptions, Reorderer


GRAPH = """
edge(a, b). edge(b, c). edge(c, d).
hop(X, Y) :- edge(X, Y).
hop(X, Y) :- edge(X, Z), edge(Z, Y).
path3(X, Y) :- hop(X, M), hop(M, Y).
"""


def answers(database, query):
    return sorted(s.key() for s in Engine(database).ask(query))


class TestUnfoldClauseGoal:
    def test_single_clause_inline(self):
        database = Database.from_source("inner(X) :- base(X). base(1). outer(Y) :- inner(Y).")
        clause = database.clauses(("outer", 1))[0]
        (resolvent,) = unfold_clause_goal(clause, 0, database)
        goals = body_goals(resolvent.body)
        assert len(goals) == 1
        assert goals[0].indicator == ("base", 1)
        # The head variable and the inlined goal's variable stay linked.
        assert resolvent.head.args[0] is goals[0].args[0]

    def test_multi_clause_fanout(self):
        database = Database.from_source(GRAPH)
        clause = database.clauses(("path3", 2))[0]
        resolvents = unfold_clause_goal(clause, 0, database)
        assert len(resolvents) == 2  # hop/2 has two clauses

    def test_bindings_applied(self):
        database = Database.from_source("k(a, 1). caller(V) :- k(a, V).")
        clause = database.clauses(("caller", 1))[0]
        (resolvent,) = unfold_clause_goal(clause, 0, database)
        # k(a, V) resolved against k(a, 1): V = 1 applied everywhere.
        assert str(resolvent.head) == "caller(1)"

    def test_non_matching_heads_dropped(self):
        database = Database.from_source("k(b). caller :- k(a).")
        clause = database.clauses(("caller", 0))[0]
        assert unfold_clause_goal(clause, 0, database) == []

    def test_true_body_removed(self):
        database = Database.from_source("f(1). g(X) :- f(X), f(X).")
        clause = database.clauses(("g", 1))[0]
        (resolvent,) = unfold_clause_goal(clause, 0, database)
        goals = body_goals(resolvent.body)
        assert [str(g) for g in goals] == ["f(1)"]  # one fact inlined away

    def test_undefined_goal_none(self):
        database = Database.from_source("caller :- ghost(1).")
        clause = database.clauses(("caller", 0))[0]
        assert unfold_clause_goal(clause, 0, database) is None


class TestUnfoldProgram:
    def test_equivalence(self):
        database = Database.from_source(GRAPH)
        unfolded, report = unfold_program(database, UnfoldOptions(rounds=2))
        assert answers(database, "path3(X, Y)") == answers(unfolded, "path3(X, Y)")
        assert report.unfolded

    def test_recursive_callee_skipped(self):
        source = """
        nat(z). nat(s(X)) :- nat(X).
        two(N) :- nat(N).
        """
        database = Database.from_source(source)
        unfolded, report = unfold_program(database)
        assert not report.unfolded
        assert str(unfolded.clauses(("two", 1))[0].body) == "nat(N)"

    def test_cut_callee_skipped(self):
        source = "pick(X) :- gen(X), !. gen(1). gen(2). use(X) :- pick(X)."
        database = Database.from_source(source)
        unfolded, report = unfold_program(database)
        assert all("pick" not in line for line in report.unfolded)

    def test_multi_resolvent_blocked_in_side_effect_clause(self):
        # Unfolding choice/1 (2 clauses) after the write would duplicate
        # the side effect on backtracking.
        source = """
        choice(1). choice(2).
        noisy :- write(x), choice(Y), Y > 1.
        """
        database = Database.from_source(source)
        unfolded, report = unfold_program(database)
        assert report.unfolded == []
        original = Engine(database)
        original.count_solutions("noisy")
        new = Engine(unfolded)
        new.count_solutions("noisy")
        assert original.output_text() == new.output_text()

    def test_single_resolvent_allowed_in_cut_clause(self):
        source = """
        wrap(X) :- base(X).
        base(1).
        pickone(X) :- wrap(X), !.
        """
        database = Database.from_source(source)
        unfolded, report = unfold_program(database, UnfoldOptions(rounds=3))
        assert answers(database, "pickone(X)") == answers(unfolded, "pickone(X)")

    def test_growth_bounded(self):
        source = (
            "c(1). c(2). c(3). c(4). c(5).\n"
            "w(X) :- c(X).\n"
            "big(X, Y) :- w(X), w(Y).\n"
        )
        database = Database.from_source(source)
        unfolded, _ = unfold_program(
            database, UnfoldOptions(rounds=5, max_resolvents=2)
        )
        # w/1 has one clause (inlined), c fan-out of 5 exceeds the bound.
        assert len(unfolded.clauses(("big", 2))) <= 4

    def test_directives_preserved(self):
        database = Database.from_source(":- entry(path3/2).\n" + GRAPH)
        unfolded, _ = unfold_program(database)
        assert len(unfolded.directives) == 1


class TestReordererIntegration:
    def test_unfold_then_reorder_equivalent(self):
        database = Database.from_source(GRAPH)
        program = Reorderer(
            Database.from_source(GRAPH), ReorderOptions(unfold_rounds=2)
        ).reorder()
        assert answers(database, "path3(X, Y)") == sorted(
            s.key() for s in program.engine().ask("path3(X, Y)")
        )
        assert program.report is not None

    def test_unfolded_output_keeps_the_source_operators(self):
        source = ":- op(700, xfx, ===>).\na ===> b.\nreach(X, Y) :- X ===> Y."
        program = Reorderer(
            Database.from_source(source), ReorderOptions(unfold_rounds=1)
        ).reorder()
        text = program.source()
        assert text.startswith(":- op(700, xfx, ===>).\n")
        assert "a ===> b." in text
        reloaded = Engine(Database.from_source(text))
        assert reloaded.count_solutions("reach(X, Y)") == 1

    def test_unfold_report_attached(self):
        reorderer = Reorderer(
            Database.from_source(GRAPH), ReorderOptions(unfold_rounds=1)
        )
        assert reorderer.unfold_report is not None
        assert reorderer.unfold_report.unfolded
