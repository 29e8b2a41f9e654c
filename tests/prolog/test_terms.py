"""Unit tests for the term representation."""

import os
import pickle
import subprocess
import sys

import pytest

from repro.prolog.terms import (
    Atom,
    Struct,
    Var,
    copy_term,
    deref,
    functor_indicator,
    indicator_str,
    is_callable_term,
    is_list_cell,
    is_number,
    is_proper_list,
    iter_list,
    list_to_python,
    make_list,
    rename_term,
    structural_eq,
    term_is_ground,
    term_ordering_key,
    term_variables,
)


class TestAtom:
    def test_interned_identity(self):
        assert Atom("foo") is Atom("foo")

    def test_distinct_atoms(self):
        assert Atom("foo") is not Atom("bar")

    def test_str(self):
        assert str(Atom("hello")) == "hello"

    def test_hashable(self):
        assert {Atom("a"): 1}[Atom("a")] == 1

    def test_empty_name_allowed(self):
        assert Atom("").name == ""

    def test_never_equals_its_name(self):
        assert Atom("a") != "a"
        assert "a" != Atom("a")

    def test_hash_is_identity(self):
        assert hash(Atom("a")) == object.__hash__(Atom("a"))

    def test_pickled_container_finds_atoms(self):
        data = pickle.loads(pickle.dumps({Atom("a"): 1, "s": {Atom("b")}}))
        assert data[Atom("a")] == 1
        assert Atom("b") in data["s"]

    def test_pickled_container_finds_atoms_in_another_process(self):
        # The receiving process interns the atoms afresh, at addresses
        # (and so identity hashes) of its own.
        payload = pickle.dumps({Atom("a"): 1, "s": {Atom("b")}})
        script = (
            "import pickle, sys\n"
            "from repro.prolog.terms import Atom\n"
            "data = pickle.loads(sys.stdin.buffer.read())\n"
            "assert data[Atom('a')] == 1 and Atom('b') in data['s']\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        subprocess.run(
            [sys.executable, "-c", script], input=payload, env=env, check=True
        )


class TestVar:
    def test_fresh_vars_distinct(self):
        assert Var() is not Var()

    def test_anonymous_gets_generated_name(self):
        assert Var().name.startswith("_G")

    def test_named(self):
        assert Var("X").name == "X"

    def test_initially_unbound(self):
        assert Var().ref is None


class TestStruct:
    def test_arity(self):
        s = Struct("f", (Atom("a"), Atom("b")))
        assert s.arity == 2

    def test_indicator(self):
        assert Struct("foo", (1,)).indicator == ("foo", 1)

    def test_zero_arity_rejected(self):
        with pytest.raises(ValueError):
            Struct("f", ())

    def test_args_become_tuple(self):
        s = Struct("f", [1, 2])
        assert isinstance(s.args, tuple)


class TestDeref:
    def test_unbound_var(self):
        v = Var()
        assert deref(v) is v

    def test_follows_chain(self):
        a, b = Var(), Var()
        a.ref = b
        b.ref = Atom("x")
        assert deref(a) is Atom("x")

    def test_non_var_identity(self):
        assert deref(Atom("a")) is Atom("a")
        assert deref(42) == 42


class TestPredicates:
    def test_is_number(self):
        assert is_number(1)
        assert is_number(1.5)
        assert not is_number(True)  # bool is not a Prolog number
        assert not is_number(Atom("a"))

    def test_is_callable(self):
        assert is_callable_term(Atom("a"))
        assert is_callable_term(Struct("f", (1,)))
        assert not is_callable_term(Var())
        assert not is_callable_term(3)


class TestLists:
    def test_make_empty(self):
        assert make_list([]) is Atom("[]")

    def test_roundtrip(self):
        items = [Atom("a"), 1, Struct("f", (Var(),))]
        assert list_to_python(make_list(items)) == items

    def test_is_list_cell(self):
        assert is_list_cell(make_list([1]))
        assert not is_list_cell(Atom("[]"))

    def test_improper_list_raises(self):
        open_list = make_list([1, 2], tail=Var())
        with pytest.raises(ValueError):
            list(iter_list(open_list))

    def test_is_proper_list(self):
        assert is_proper_list(make_list([1, 2]))
        assert not is_proper_list(make_list([1], tail=Var()))
        assert not is_proper_list(Atom("a"))

    def test_custom_tail(self):
        v = Var()
        lst = make_list([1], tail=v)
        assert deref(lst.args[1]) is v


class TestTermVariables:
    def test_order_of_first_occurrence(self):
        x, y = Var("X"), Var("Y")
        term = Struct("f", (x, Struct("g", (y, x))))
        assert term_variables(term) == [x, y]

    def test_skips_bound(self):
        x = Var("X")
        x.ref = Atom("a")
        assert term_variables(Struct("f", (x,))) == []
        x.ref = None

    def test_ground_term(self):
        assert term_variables(Struct("f", (1, Atom("a")))) == []


class TestGroundness:
    def test_ground(self):
        assert term_is_ground(Struct("f", (1, Atom("a"))))

    def test_not_ground(self):
        assert not term_is_ground(Struct("f", (Var(),)))

    def test_bound_var_counts_as_its_value(self):
        v = Var()
        v.ref = Atom("a")
        assert term_is_ground(v)
        v.ref = None


class TestRenameAndCopy:
    def test_copy_distinct_vars(self):
        x = Var("X")
        term = Struct("f", (x, x))
        copy = copy_term(term)
        assert copy.args[0] is copy.args[1]
        assert copy.args[0] is not x

    def test_copy_resolves_bindings(self):
        x = Var("X")
        x.ref = Atom("bound")
        copy = copy_term(Struct("f", (x,)))
        assert copy.args[0] is Atom("bound")
        x.ref = None

    def test_shared_mapping_consistent(self):
        x = Var("X")
        mapping = {}
        first = rename_term(x, mapping)
        second = rename_term(Struct("f", (x,)), mapping)
        assert second.args[0] is first


class TestStructuralEq:
    def test_atoms(self):
        assert structural_eq(Atom("a"), Atom("a"))
        assert not structural_eq(Atom("a"), Atom("b"))

    def test_numbers_type_sensitive(self):
        assert structural_eq(1, 1)
        assert not structural_eq(1, 1.0)

    def test_vars_by_identity(self):
        v = Var()
        assert structural_eq(v, v)
        assert not structural_eq(Var(), Var())

    def test_structs_recursive(self):
        assert structural_eq(Struct("f", (1, Atom("a"))), Struct("f", (1, Atom("a"))))
        assert not structural_eq(Struct("f", (1,)), Struct("f", (2,)))
        assert not structural_eq(Struct("f", (1,)), Struct("g", (1,)))

    def test_derefs_before_comparing(self):
        v = Var()
        v.ref = Atom("a")
        assert structural_eq(v, Atom("a"))
        v.ref = None


class TestStandardOrder:
    def test_var_before_number_before_atom_before_struct(self):
        keys = [
            term_ordering_key(Var()),
            term_ordering_key(3),
            term_ordering_key(Atom("z")),
            term_ordering_key(Struct("a", (1,))),
        ]
        assert keys == sorted(keys)

    def test_atoms_alphabetical(self):
        assert term_ordering_key(Atom("a")) < term_ordering_key(Atom("b"))

    def test_structs_by_arity_then_name(self):
        assert term_ordering_key(Struct("z", (1,))) < term_ordering_key(
            Struct("a", (1, 2))
        )


class TestIndicators:
    def test_atom(self):
        assert functor_indicator(Atom("foo")) == ("foo", 0)

    def test_struct(self):
        assert functor_indicator(Struct("bar", (1, 2))) == ("bar", 2)

    def test_number_raises(self):
        with pytest.raises(TypeError):
            functor_indicator(42)

    def test_indicator_str(self):
        assert indicator_str(("foo", 2)) == "foo/2"
