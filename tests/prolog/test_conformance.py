"""Conformance corpus: classic Prolog programs with known answers.

Each case is a small canonical program and the exact answers standard
Prolog produces. This is the broadest behavioural net over the engine:
list processing, arithmetic recursion, generate-and-test, accumulator
idioms, cuts, negation, meta-predicates, and two classic puzzles.
"""

import pytest

from repro.prolog import Engine
from repro.robustness import Budget

LIB = """
append([], Xs, Xs).
append([X | Xs], Ys, [X | Zs]) :- append(Xs, Ys, Zs).
member(X, [X | _]).
member(X, [_ | Xs]) :- member(X, Xs).
select(X, [X | Xs], Xs).
select(X, [Y | Xs], [Y | Ys]) :- select(X, Xs, Ys).
"""


def answers(source, query, var=None, **kwargs):
    engine = Engine.from_source(source, **kwargs)
    solutions = engine.ask(query)
    if var is None:
        return solutions
    return [str(s[var]) for s in solutions]


class TestListClassics:
    def test_append_forward(self):
        assert answers(LIB, "append([1, 2], [3, 4], L)", "L") == ["[1, 2, 3, 4]"]

    def test_append_backward_splits(self):
        engine = Engine.from_source(LIB)
        splits = [
            (str(s["A"]), str(s["B"])) for s in engine.ask("append(A, B, [1, 2])")
        ]
        assert splits == [
            ("[]", "[1, 2]"), ("[1]", "[2]"), ("[1, 2]", "[]"),
        ]

    def test_naive_reverse(self):
        source = LIB + """
        nrev([], []).
        nrev([X | Xs], R) :- nrev(Xs, T), append(T, [X], R).
        """
        assert answers(source, "nrev([1, 2, 3, 4], R)", "R") == ["[4, 3, 2, 1]"]

    def test_accumulator_reverse(self):
        source = """
        rev(Xs, Ys) :- rev_(Xs, [], Ys).
        rev_([], A, A).
        rev_([X | Xs], A, Ys) :- rev_(Xs, [X | A], Ys).
        """
        assert answers(source, "rev([a, b, c], R)", "R") == ["[c, b, a]"]

    def test_last_via_append(self):
        assert answers(LIB, "append(_, [X], [1, 2, 3])", "X") == ["3"]

    def test_sublist_enumeration(self):
        source = LIB + "sublist(S, L) :- append(_, T, L), append(S, _, T)."
        engine = Engine.from_source(source)
        count = engine.count_solutions("sublist(S, [a, b, c])")
        assert count == 10  # includes duplicates of [] per position

    def test_delete_all_modes(self):
        source = """
        del(X, [X | Y], Y).
        del(U, [X | Y], [X | V]) :- del(U, Y, V).
        """
        assert answers(source, "del(2, [1, 2, 3], R)", "R") == ["[1, 3]"]
        assert answers(source, "del(X, [1, 2], R)", "X") == ["1", "2"]
        # Insertion mode: delete(X, L, [a]) inserts X into [a].
        engine = Engine.from_source(source)
        assert engine.count_solutions("del(x, L, [a])") == 2


class TestArithmeticRecursion:
    def test_factorial(self):
        source = """
        fact(0, 1).
        fact(N, F) :- N > 0, M is N - 1, fact(M, G), F is N * G.
        """
        assert answers(source, "fact(6, F)", "F") == ["720"]

    def test_fibonacci(self):
        source = """
        fib(0, 0). fib(1, 1).
        fib(N, F) :- N > 1, A is N - 1, B is N - 2,
                     fib(A, FA), fib(B, FB), F is FA + FB.
        """
        assert answers(source, "fib(12, F)", "F") == ["144"]

    def test_gcd(self):
        source = """
        gcd(X, 0, X) :- X > 0.
        gcd(X, Y, G) :- Y > 0, Z is X mod Y, gcd(Y, Z, G).
        """
        assert answers(source, "gcd(48, 18, G)", "G") == ["6"]

    def test_length_acc(self):
        source = """
        len([], 0).
        len([_ | T], N) :- len(T, M), N is M + 1.
        """
        assert answers(source, "len([a, b, c, d, e], N)", "N") == ["5"]

    def test_sum_list(self):
        source = """
        suml([], 0).
        suml([X | Xs], S) :- suml(Xs, T), S is X + T.
        """
        assert answers(source, "suml([10, 20, 12], S)", "S") == ["42"]

    def test_between_generate_and_test(self):
        assert answers("", "between(1, 20, X), 0 =:= X mod 7", "X") == ["7", "14"]


class TestCutsAndNegation:
    def test_max_with_cut(self):
        source = "max_(X, Y, X) :- X >= Y, !. max_(_, Y, Y)."
        assert answers(source, "max_(3, 7, M)", "M") == ["7"]
        assert answers(source, "max_(9, 2, M)", "M") == ["9"]

    def test_not_member(self):
        source = LIB
        engine = Engine.from_source(source)
        assert engine.succeeds("\\+ member(5, [1, 2, 3])")
        assert not engine.succeeds("\\+ member(2, [1, 2, 3])")

    def test_once_member(self):
        assert answers(LIB, "once(member(X, [a, b, c]))", "X") == ["a"]

    def test_if_then_else_sign(self):
        source = """
        sign_(X, pos) :- X > 0, !.
        sign_(X, neg) :- X < 0, !.
        sign_(_, zero).
        """
        assert answers(source, "sign_(-3, S)", "S") == ["neg"]
        assert answers(source, "sign_(0, S)", "S") == ["zero"]

    def test_soft_committed_choice(self):
        source = "classify(X, small) :- (X < 10 -> true ; fail). classify(X, big) :- X >= 10."
        assert answers(source, "classify(3, C)", "C") == ["small"]
        assert answers(source, "classify(30, C)", "C") == ["big"]


class TestMetaPredicates:
    def test_findall_squares(self):
        assert answers(
            "", "findall(S, (between(1, 4, N), S is N * N), L)", "L"
        ) == ["[1, 4, 9, 16]"]

    def test_setof_dedup_sorted(self):
        source = "c(3). c(1). c(3). c(2)."
        assert answers(source, "setof(X, c(X), L)", "L") == ["[1, 2, 3]"]

    def test_bagof_groups(self):
        source = "age(tom, 5). age(ann, 5). age(pat, 8)."
        engine = Engine.from_source(source)
        groups = engine.ask("bagof(P, age(P, A), L)")
        assert len(groups) == 2

    def test_aggregate_via_findall_length(self):
        source = "c(a). c(b). c(c)."
        assert answers(source, "findall(X, c(X), L), length(L, N)", "N") == ["3"]


class TestFourQueens:
    SOURCE = LIB + """
    queens(Qs) :- permutation_([1, 2, 3, 4], Qs), safe(Qs).
    permutation_([], []).
    permutation_(Xs, [X | Ys]) :- select(X, Xs, Zs), permutation_(Zs, Ys).
    safe([]).
    safe([Q | Qs]) :- no_attack(Q, Qs, 1), safe(Qs).
    no_attack(_, [], _).
    no_attack(Q, [Q1 | Qs], D) :-
        Q =\\= Q1 + D, Q =\\= Q1 - D, D1 is D + 1, no_attack(Q, Qs, D1).
    """

    def test_two_solutions(self):
        engine = Engine.from_source(self.SOURCE)
        boards = [str(s["Qs"]) for s in engine.ask("queens(Qs)")]
        assert boards == ["[2, 4, 1, 3]", "[3, 1, 4, 2]"]


class TestMiniZebra:
    """A three-house zebra-style puzzle with a unique solution."""

    SOURCE = LIB + """
    puzzle(Houses) :-
        Houses = [house(_, _, _), house(_, _, _), house(_, _, _)],
        member(house(red, ana, _), Houses),
        member(house(_, ben, dog), Houses),
        Houses = [house(_, _, cat) | _],
        next_to(house(green, _, _), house(red, _, _), Houses),
        member(house(blue, _, _), Houses),
        member(house(_, cal, _), Houses),
        Houses = [_, _, house(_, _, fish)].
    next_to(A, B, [A, B | _]).
    next_to(A, B, [_ | T]) :- next_to(A, B, T).
    """

    def test_unique_solution(self):
        engine = Engine.from_source(self.SOURCE, budget=Budget(calls=2_000_000))
        solutions = {str(s["H"]) for s in engine.ask("puzzle(H)")}
        assert len(solutions) == 1
        (solution,) = solutions
        assert "house(blue, cal, cat)" in solution
        assert "house(green, ben, dog)" in solution
        assert "house(red, ana, fish)" in solution
