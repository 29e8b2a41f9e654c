"""Unit tests for the builtin predicates."""

import pytest

from repro.analysis.callgraph import CallGraph
from repro.analysis.fixity import FixityAnalysis, side_effect_builtins
from repro.errors import (
    ArithmeticErrorProlog,
    InstantiationError,
    TypeErrorProlog,
)
from repro.prolog import Engine
from repro.prolog.builtins import BUILTINS, is_builtin, is_control, lookup
from repro.prolog.builtins.lists import LIST_LIBRARY
from repro.prolog.terms import Atom


def engine(source="", **kwargs):
    return Engine.from_source(source, **kwargs)


def one(eng, query, var):
    (solution,) = eng.ask(query)
    return str(solution[var])


class TestRegistry:
    def test_core_builtins_registered(self):
        for indicator in [("is", 2), ("=", 2), ("var", 1), ("functor", 3),
                          ("write", 1), ("findall", 3), ("\\+", 1)]:
            assert is_builtin(indicator)
            assert lookup(indicator) is not None

    def test_control_indicators(self):
        assert is_control((",", 2))
        assert is_control(("!", 0))
        assert not is_control(("foo", 1))

    def test_side_effect_flags(self):
        assert BUILTINS[("write", 1)].side_effect
        assert BUILTINS[("nl", 0)].side_effect
        assert not BUILTINS[("is", 2)].side_effect

    def test_semifixed_flags(self):
        assert BUILTINS[("var", 1)].semifixed
        assert BUILTINS[("\\+", 1)].semifixed
        assert not BUILTINS[("=", 2)].semifixed


class TestArithmetic:
    def test_is_basic(self):
        assert one(engine(), "X is 2 + 3 * 4", "X") == "14"

    def test_is_division(self):
        assert one(engine(), "X is 7 // 2", "X") == "3"
        assert one(engine(), "X is -7 // 2", "X") == "-3"  # truncate toward 0
        assert one(engine(), "X is 7 mod 3", "X") == "1"

    def test_float_arith(self):
        assert one(engine(), "X is 1 / 2", "X") == "0.5"

    def test_functions(self):
        assert one(engine(), "X is abs(-4)", "X") == "4"
        assert one(engine(), "X is max(2, 5)", "X") == "5"
        assert one(engine(), "X is truncate(3.9)", "X") == "3"

    def test_is_checks_value(self):
        assert engine().succeeds("5 is 2 + 3")
        assert not engine().succeeds("6 is 2 + 3")

    def test_unbound_expression_raises(self):
        with pytest.raises(InstantiationError):
            engine().succeeds("X is Y + 1")

    def test_division_by_zero(self):
        with pytest.raises(ArithmeticErrorProlog):
            engine().succeeds("X is 1 // 0")

    def test_unknown_function(self):
        with pytest.raises(ArithmeticErrorProlog):
            engine().succeeds("X is frobnicate(3)")

    def test_comparisons(self):
        eng = engine()
        assert eng.succeeds("1 < 2")
        assert eng.succeeds("2 =< 2")
        assert eng.succeeds("3 =:= 3.0")
        assert eng.succeeds("3 =\\= 4")
        assert not eng.succeeds("2 > 2")

    def test_succ(self):
        assert one(engine(), "succ(3, X)", "X") == "4"
        assert one(engine(), "succ(X, 4)", "X") == "3"
        assert not engine().succeeds("succ(X, 0)")


class TestUnificationBuiltins:
    def test_equals(self):
        assert one(engine(), "X = f(1)", "X") == "f(1)"

    def test_not_unifiable(self):
        eng = engine()
        assert eng.succeeds("a \\= b")
        assert not eng.succeeds("X \\= b")  # X unifies with b

    def test_identity(self):
        eng = engine()
        assert eng.succeeds("f(X) == f(X)")
        assert not eng.succeeds("f(X) == f(Y)")
        assert eng.succeeds("f(X) \\== f(Y)")

    def test_standard_order(self):
        eng = engine()
        assert eng.succeeds("1 @< a")       # numbers before atoms
        assert eng.succeeds("a @< f(1)")    # atoms before compounds
        assert eng.succeeds("X @< 1")       # vars first
        assert eng.succeeds("f(1) @< g(1)")

    def test_compare(self):
        assert one(engine(), "compare(O, 1, 2)", "O") == "<"
        assert one(engine(), "compare(O, b, a)", "O") == ">"
        assert one(engine(), "compare(O, x, x)", "O") == "="


class TestTypeTests:
    def test_var_nonvar(self):
        eng = engine()
        assert eng.succeeds("var(X)")
        assert not eng.succeeds("var(a)")
        assert eng.succeeds("nonvar(a)")
        assert eng.succeeds("X = 1, nonvar(X)")

    def test_atom_number(self):
        eng = engine()
        assert eng.succeeds("atom(foo)")
        assert not eng.succeeds("atom(1)")
        assert not eng.succeeds("atom(f(x))")
        assert eng.succeeds("number(3.5)")
        assert eng.succeeds("integer(3)")
        assert not eng.succeeds("integer(3.5)")
        assert eng.succeeds("float(3.5)")

    def test_atomic_compound(self):
        eng = engine()
        assert eng.succeeds("atomic([])")
        assert eng.succeeds("compound(f(x))")
        assert eng.succeeds("compound([a])")
        assert not eng.succeeds("compound(foo)")

    def test_callable(self):
        eng = engine()
        assert eng.succeeds("callable(foo)")
        assert eng.succeeds("callable(f(x))")
        assert not eng.succeeds("callable(3)")

    def test_ground(self):
        eng = engine()
        assert eng.succeeds("ground(f(1, a))")
        assert not eng.succeeds("ground(f(1, X))")

    def test_is_list(self):
        eng = engine()
        assert eng.succeeds("is_list([1, 2])")
        assert not eng.succeeds("is_list([1 | T])")


class TestTermInspection:
    def test_functor_decompose(self):
        eng = engine()
        (sol,) = eng.ask("functor(foo(a, b), N, A)")
        assert str(sol["N"]) == "foo"
        assert str(sol["A"]) == "2"

    def test_functor_atom(self):
        (sol,) = engine().ask("functor(foo, N, A)")
        assert str(sol["N"]), str(sol["A"]) == ("foo", "0")

    def test_functor_construct(self):
        result = one(engine(), "functor(T, f, 2)", "T")
        assert result.startswith("f(") and result.count(",") == 1

    def test_functor_demands_modes(self):
        # The paper's example (§V-B): functor with only an arity errors.
        with pytest.raises(InstantiationError):
            engine().succeeds("functor(T, N, 2)")

    def test_arg(self):
        assert one(engine(), "arg(2, f(a, b, c), X)", "X") == "b"
        assert not engine().succeeds("arg(9, f(a), X)")

    def test_arg_enumerates(self):
        solutions = engine().ask("arg(N, f(a, b), X)")
        assert [(str(s["N"]), str(s["X"])) for s in solutions] == [
            ("1", "a"), ("2", "b"),
        ]

    def test_univ_decompose(self):
        assert one(engine(), "f(a, b) =.. L", "L") == "[f, a, b]"

    def test_univ_construct(self):
        assert one(engine(), "T =.. [g, 1]", "T") == "g(1)"

    def test_univ_atom(self):
        assert one(engine(), "foo =.. L", "L") == "[foo]"

    def test_copy_term(self):
        eng = engine()
        (sol,) = eng.ask("copy_term(f(X, X, a), C)")
        text = str(sol["C"])
        assert text.startswith("f(") and text.endswith(", a)")


class TestIO:
    def test_write_captures(self):
        eng = engine()
        eng.succeeds("write(hello)")
        assert eng.output_text() == "hello"

    def test_write_operator_notation(self):
        eng = engine()
        eng.succeeds("write(1 + 2)")
        assert eng.output_text() == "1 + 2"

    def test_nl_tab_put(self):
        eng = engine()
        eng.succeeds("write(a), nl, tab(3), put(0'b)")
        assert eng.output_text() == "a\n   b"

    def test_writeln(self):
        eng = engine()
        eng.succeeds("writeln(x)")
        assert eng.output_text() == "x\n"

    def test_read_from_queue(self):
        eng = engine()
        eng.input_terms.append(Atom("hello"))
        assert one(eng, "read(X)", "X") == "hello"

    def test_read_empty_gives_end_of_file(self):
        assert one(engine(), "read(X)", "X") == "end_of_file"


@pytest.mark.parametrize("compiled", [True, False], ids=["vm", "interpreter"])
class TestGet0:
    def test_reads_queued_codes_in_order_then_end_of_file(self, compiled):
        eng = engine(compiled=compiled)
        eng.input_terms.extend([104, 105])
        (solution,) = eng.ask("get0(A), get0(B), get0(C)")
        assert [solution[name] for name in "ABC"] == [104, 105, -1]
        assert not eng.input_terms

    def test_bound_argument_consumes_the_code(self, compiled):
        eng = engine(compiled=compiled)
        eng.input_terms.extend([104, 105])
        assert not eng.succeeds("get0(105)")
        assert one(eng, "get0(X)", "X") == "105"


def test_get0_is_fixed_for_the_reorderer():
    database = engine("next(C) :- get0(C).").database
    analysis = FixityAnalysis(database, CallGraph(database))
    assert ("get0", 1) in side_effect_builtins()
    assert analysis.is_fixed(("next", 1))


class TestMetaCall:
    def test_call(self):
        eng = engine("f(1). f(2).")
        assert [str(s["X"]) for s in eng.ask("call(f(X))")] == ["1", "2"]

    def test_call_with_extra_args(self):
        eng = engine("add(X, Y, Z) :- Z is X + Y.")
        assert one(eng, "call(add(1), 2, X)", "X") == "3"

    def test_call_unbound_raises(self):
        with pytest.raises(InstantiationError):
            engine().succeeds("call(G)")

    def test_once(self):
        eng = engine("f(1). f(2).")
        assert [str(s["X"]) for s in eng.ask("once(f(X))")] == ["1"]

    def test_forall(self):
        eng = engine("n(1). n(2). even_or_small(X) :- X < 10.")
        assert eng.succeeds("forall(n(X), even_or_small(X))")
        eng2 = engine("n(1). n(20). even_or_small(X) :- X < 10.")
        assert not eng2.succeeds("forall(n(X), even_or_small(X))")


class TestAllSolutions:
    SOURCE = """
    age(peter, 7). age(ann, 11). age(pat, 8). age(tom, 5).
    likes(mary, peter). likes(mary, pat).
    """

    def test_findall(self):
        assert one(engine(self.SOURCE), "findall(C, age(C, _), L)", "L") == (
            "[peter, ann, pat, tom]"
        )

    def test_findall_empty_list_on_failure(self):
        assert one(engine(self.SOURCE), "findall(C, age(C, 99), L)", "L") == "[]"

    def test_findall_template_shape(self):
        result = one(engine(self.SOURCE), "findall(A - C, age(C, A), L)", "L")
        assert result == "[7 - peter, 11 - ann, 8 - pat, 5 - tom]"

    def test_bagof_fails_on_empty(self):
        assert not engine(self.SOURCE).succeeds("bagof(C, age(C, 99), L)")

    def test_bagof_groups_by_free_variable(self):
        # Without ^, bagof backtracks over the ages.
        solutions = engine(self.SOURCE).ask("bagof(C, age(C, A), L)")
        assert len(solutions) == 4  # one group per distinct age

    def test_bagof_caret_suppresses_grouping(self):
        solutions = engine(self.SOURCE).ask("bagof(C, A ^ age(C, A), L)")
        assert len(solutions) == 1
        assert str(solutions[0]["L"]) == "[peter, ann, pat, tom]"

    def test_setof_sorts_and_dedups(self):
        eng = engine("n(3). n(1). n(3). n(2).")
        assert one(eng, "setof(X, n(X), L)", "L") == "[1, 2, 3]"

    def test_setof_grouping(self):
        solutions = engine(self.SOURCE).ask("setof(P, likes(L, P), S)")
        assert len(solutions) == 1
        assert str(solutions[0]["S"]) == "[pat, peter]"


class TestListBuiltins:
    def test_length_of_list(self):
        assert one(engine(), "length([a, b, c], N)", "N") == "3"

    def test_length_builds_list(self):
        result = one(engine(), "length(L, 2)", "L")
        assert result.startswith("[") and result.count(",") == 1

    def test_length_enumerates(self):
        solutions = engine().ask("length(L, N), N > 1", limit=2)
        assert [str(s["N"]) for s in solutions] == ["2", "3"]

    def test_length_partial_list(self):
        assert one(engine(), "length([a | T], 3)", "T").count(",") == 1

    def test_between(self):
        assert [str(s["X"]) for s in engine().ask("between(1, 4, X)")] == [
            "1", "2", "3", "4",
        ]

    def test_between_check(self):
        assert engine().succeeds("between(1, 10, 5)")
        assert not engine().succeeds("between(1, 10, 50)")

    def test_list_library(self):
        eng = engine(LIST_LIBRARY)
        assert one(eng, "append([1, 2], [3], L)", "L") == "[1, 2, 3]"
        assert eng.count_solutions("member(X, [a, b, c])") == 3
        assert one(eng, "reverse([1, 2, 3], R)", "R") == "[3, 2, 1]"
        assert eng.count_solutions("permutation([1, 2, 3], P)") == 6
        assert one(eng, "nth1(2, [a, b, c], X)", "X") == "b"
        assert one(eng, "last([a, b, c], X)", "X") == "c"

    def test_append_split_mode(self):
        eng = engine(LIST_LIBRARY)
        assert eng.count_solutions("append(A, B, [1, 2, 3])") == 4
