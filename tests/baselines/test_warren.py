"""Unit tests for Warren's baseline reordering method."""

import pytest

from repro.baselines.warren import WarrenReorderer
from repro.prolog import Database, Engine, parse_term
from repro.prolog.database import body_goals
from repro.prolog.terms import term_variables


GEOGRAPHY = """
:- domain_size(borders/2, 1, 6).
:- domain_size(borders/2, 2, 6).
country(france). country(spain). country(italy).
country(portugal). country(austria). country(germany).
borders(france, spain). borders(france, italy). borders(france, germany).
borders(spain, portugal). borders(italy, austria). borders(germany, austria).
ocean(atlantic).
"""


def reorderer(source=GEOGRAPHY):
    return WarrenReorderer(Database.from_source(source))


class TestGoalFactor:
    def test_uninstantiated_is_tuple_count(self):
        w = reorderer()
        goal = parse_term("borders(X, Y)")
        assert w.goal_factor(goal, set()) == 6.0

    def test_partly_instantiated(self):
        w = reorderer()
        goal = parse_term("borders(X, Y)")
        x = goal.args[0]
        assert w.goal_factor(goal, {id(x)}) == pytest.approx(1.0)  # 6/6

    def test_constant_argument_counts_as_bound(self):
        w = reorderer()
        goal = parse_term("borders(france, Y)")
        assert w.goal_factor(goal, set()) == pytest.approx(1.0)

    def test_unknown_predicate_deferred_until_bound(self):
        w = reorderer()
        goal = parse_term("mystery(X)")
        # Non-database goals wait until their variables are bound.
        assert w.goal_factor(goal, set()) == float("inf")
        assert w.goal_factor(goal, {id(goal.args[0])}) == 1.0

    def test_paper_borders_values(self):
        # §I-E: 900 tuples, domains of 150: 900 / 6 / 0.04.
        source = (
            ":- domain_size(b/2, 1, 150). :- domain_size(b/2, 2, 150). b(x, y)."
        )
        w = WarrenReorderer(Database.from_source(source))
        w.domains._tuples[("b", 2)] = 900
        goal = parse_term("b(X, Y)")
        x, y = goal.args
        assert w.goal_factor(goal, set()) == 900
        assert w.goal_factor(goal, {id(x)}) == 6
        assert w.goal_factor(goal, {id(x), id(y)}) == pytest.approx(0.04)


class TestOrderGoals:
    def test_selective_goal_first(self):
        w = reorderer()
        body = parse_term("country(X), borders(X, portugal)")
        goals = body_goals(body)
        ordered = w.order_goals(goals)
        assert ordered[0].name == "borders"  # constant arg: factor < 1

    def test_instantiation_propagates(self):
        w = reorderer()
        body = parse_term("borders(france, Y), borders(Y, Z)")
        goals = body_goals(body)
        ordered = w.order_goals(goals)
        # First goal binds Y, making the second partly instantiated.
        assert str(ordered[0].args[0]) == "france"

    def test_bound_vars_seed(self):
        w = reorderer()
        body = parse_term("country(X), borders(X, Y)")
        goals = body_goals(body)
        x = term_variables(goals[0])[0]
        ordered = w.order_goals(goals, bound_vars=[x])
        # With X pre-bound, borders(X, Y) has factor 1 < country's ... both
        # shrink; ensure deterministic result and all goals kept.
        assert len(ordered) == 2

    def test_reorder_query(self):
        w = reorderer()
        query = parse_term("country(C), borders(C, portugal)")
        reordered = w.reorder_query(query)
        first = body_goals(reordered)[0]
        assert first.name == "borders"


class TestReorderProgram:
    def test_answers_preserved(self):
        source = GEOGRAPHY + "\nreach2(A, C) :- borders(A, B), borders(B, C).\n"
        database = Database.from_source(source)
        w = WarrenReorderer(database)
        reordered = w.reorder_program()
        query = "reach2(X, Y)"
        before = sorted(s.key() for s in Engine(database).ask(query))
        after = sorted(s.key() for s in Engine(reordered).ask(query))
        assert before == after

    def test_directives_carried_over(self):
        database = Database.from_source(GEOGRAPHY)
        reordered = WarrenReorderer(database).reorder_program()
        assert len(reordered.directives) == len(database.directives)

    def test_output_keeps_the_source_operators_and_indexing(self):
        database = Database.from_source(
            ":- op(700, xfx, ===>).\na ===> b.\nreach(X, Y) :- X ===> Y.",
            index_argument=1,
        )
        reordered = WarrenReorderer(database).reorder_program()
        assert reordered.index_argument == 1
        assert Engine(reordered).count_solutions("X ===> Y") == 1

    def test_ground_assumption(self):
        source = GEOGRAPHY + "\npair(A, B) :- country(A), borders(A, B).\n"
        database = Database.from_source(source)
        reordered = WarrenReorderer(database).reorder_program("ground")
        clause = reordered.clauses(("pair", 2))[0]
        goals = body_goals(clause.body)
        # With head vars assumed bound, borders (6/36) beats country (6/6).
        assert goals[0].name == "borders"
