"""Unit tests for the goal-order legality scan (§VI-B-1)."""

from repro.analysis.declarations import Declarations
from repro.analysis.mode_inference import ModeInference
from repro.analysis.modes import parse_mode_string
from repro.prolog import Database, parse_term
from repro.prolog.database import body_goals, split_clause
from tests.reorder.legality import legal_orders, order_is_legal


def setup(source):
    database = Database.from_source(source)
    return ModeInference(database, Declarations.from_database(database))


def clause_parts(text):
    head, body = split_clause(parse_term(text))
    return head, body_goals(body)


def mode(text):
    return parse_mode_string(text)


class TestOrderIsLegal:
    def test_source_order_legal(self):
        inference = setup("gen(1). gen(2).")
        head, goals = clause_parts("f(X, Y) :- gen(X), Y is X + 1")
        assert order_is_legal(head, goals, mode("--"), inference)

    def test_swapped_order_illegal(self):
        inference = setup("gen(1). gen(2).")
        head, goals = clause_parts("f(X, Y) :- gen(X), Y is X + 1")
        assert not order_is_legal(head, list(reversed(goals)), mode("--"), inference)

    def test_input_mode_changes_legality(self):
        inference = setup("gen(1). gen(2).")
        head, goals = clause_parts("f(X, Y) :- gen(X), Y is X + 1")
        # With X already ground, 'is' may run first.
        assert order_is_legal(head, list(reversed(goals)), mode("+-"), inference)

    def test_permutation_paper_example(self):
        # §IV-D-7: swapping the goals of permutation's first clause
        # makes mode (+,-) unsafe.
        inference = setup(
            """
            :- legal_mode(select(?, +, ?), select(+, +, +)).
            :- legal_mode(select(-, -, +), select(+, +, +)).
            :- legal_mode(permutation(+, -)).
            :- legal_mode(permutation(-, +)).
            :- recursive(select/3).
            :- recursive(permutation/2).
            select(X, [X | Xs], Xs).
            select(X, [Y | Xs], [Y | Ys]) :- select(X, Xs, Ys).
            permutation(Xs, [X | Ys]) :- select(X, Xs, Zs), permutation(Zs, Ys).
            permutation([], []).
            """
        )
        head, goals = clause_parts(
            "permutation(Xs, [X | Ys]) :- select(X, Xs, Zs), permutation(Zs, Ys)"
        )
        assert order_is_legal(head, goals, mode("+-"), inference)
        swapped = list(reversed(goals))
        assert not order_is_legal(head, swapped, mode("+-"), inference)


class TestLegalOrders:
    def test_enumerates(self):
        inference = setup("gen(1). cheap(2).")
        head, goals = clause_parts("f(X) :- gen(X), cheap(X)")
        orders = legal_orders(head, goals, mode("-"), inference)
        assert set(orders) == {(0, 1), (1, 0)}

    def test_filters_illegal(self):
        inference = setup("gen(1).")
        head, goals = clause_parts("f(X, Y) :- gen(X), Y is X * 2, Y > 0")
        orders = legal_orders(head, goals, mode("--"), inference)
        # gen must come first; 'is' before '>'.
        assert orders == [(0, 1, 2)]

    def test_none_legal(self):
        inference = setup("f(1).")
        head, goals = clause_parts("g(X) :- X > 0, X < 5")
        assert legal_orders(head, goals, mode("-"), inference) == []
