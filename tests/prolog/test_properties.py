"""Property-based tests (hypothesis) for the Prolog substrate invariants:
unification algebra, trail discipline, parser/writer round-trips,
reader robustness, and standard-order laws."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import PrologSyntaxError
from repro.prolog.reader.lexer import SYMBOL_CHARS
from repro.prolog.reader.parser import parse_term, parse_terms
from repro.prolog.terms import (
    Atom,
    Struct,
    Var,
    copy_term,
    structural_eq,
    term_is_ground,
    term_ordering_key,
    term_variables,
)
from repro.prolog.unify import Trail, unify
from repro.prolog.writer import term_to_string

# -- term strategies -------------------------------------------------------

atom_names = st.sampled_from(
    ["a", "b", "c", "foo", "bar", "[]", "hello world", "it's", "+", ":-"]
)
atoms = atom_names.map(Atom)
numbers = st.one_of(
    st.integers(min_value=-1_000_000, max_value=1_000_000),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(float),
)
functor_names = st.sampled_from(["f", "g", "h", "pair", "."])
#: Atom names the writer must quote, or leave bare, correctly: any
#: Unicode text, symbol-char runs, and the solo and punctuation atoms.
any_atom_names = st.one_of(
    st.text(max_size=8),
    st.text(alphabet=sorted(SYMBOL_CHARS), min_size=1, max_size=5),
    st.sampled_from(["[]", "{}", "!", ";", ",", "|", "'", "\\", "\n", "''", "%", "/*"]),
    st.text(alphabet="abXY_09'\\\n \t.,|!é²ⅰ", max_size=6),
)


def structs(children):
    return st.builds(
        lambda name, args: Struct(name, args),
        functor_names,
        st.lists(children, min_size=1, max_size=3),
    )


ground_terms = st.recursive(st.one_of(atoms, numbers), structs, max_leaves=12)


@st.composite
def open_terms(draw):
    """Terms that may contain (shared) free variables."""
    pool = [Var("X"), Var("Y"), Var("Z")]

    def build(depth):
        kind = draw(st.integers(min_value=0, max_value=3 if depth < 3 else 2))
        if kind == 0:
            return draw(atoms)
        if kind == 1:
            return draw(numbers)
        if kind == 2:
            return pool[draw(st.integers(min_value=0, max_value=2))]
        name = draw(functor_names)
        arity = draw(st.integers(min_value=1, max_value=3))
        return Struct(name, tuple(build(depth + 1) for _ in range(arity)))

    return build(0)


# -- unification properties -----------------------------------------------


class TestUnificationProperties:
    @given(ground_terms)
    def test_reflexive_on_ground(self, term):
        assert unify(term, term, Trail())

    @given(open_terms())
    def test_self_unification_succeeds(self, term):
        trail = Trail()
        assert unify(term, term, trail)
        trail.undo_to(0)

    @given(open_terms(), open_terms())
    def test_symmetric(self, left, right):
        trail = Trail()
        forward = unify(left, right, trail, occurs_check=True)
        trail.undo_to(0)
        backward = unify(right, left, trail, occurs_check=True)
        trail.undo_to(0)
        assert forward == backward

    @given(open_terms(), open_terms())
    def test_trail_restores_state(self, left, right):
        before_left = term_to_string(copy_term(left))
        before_right = term_to_string(copy_term(right))
        trail = Trail()
        mark = trail.mark()
        unify(left, right, trail)
        trail.undo_to(mark)
        assert term_to_string(copy_term(left)) == before_left
        assert term_to_string(copy_term(right)) == before_right

    @given(open_terms(), ground_terms)
    def test_unified_terms_are_structurally_equal(self, pattern, ground):
        trail = Trail()
        if unify(pattern, ground, trail):
            assert structural_eq(pattern, ground)
        trail.undo_to(0)

    @given(ground_terms, ground_terms)
    def test_ground_unification_is_equality(self, left, right):
        trail = Trail()
        result = unify(left, right, trail)
        trail.undo_to(0)
        assert result == structural_eq(left, right)

    @given(open_terms())
    def test_var_unifies_with_anything(self, term):
        trail = Trail()
        v = Var()
        assert unify(v, term, trail)
        trail.undo_to(0)


# -- copy/rename properties --------------------------------------------------


class TestCopyProperties:
    @given(open_terms())
    def test_copy_preserves_shape(self, term):
        assert term_to_string(copy_term(term)) == term_to_string(term)

    @given(open_terms())
    def test_copy_has_fresh_variables(self, term):
        original_vars = set(map(id, term_variables(term)))
        copied_vars = set(map(id, term_variables(copy_term(term))))
        assert not (original_vars & copied_vars)

    @given(ground_terms)
    def test_ground_copy_identical(self, term):
        assert structural_eq(copy_term(term), term)

    @given(open_terms())
    def test_groundness_preserved(self, term):
        assert term_is_ground(copy_term(term)) == term_is_ground(term)


# -- parser/writer round-trip ---------------------------------------------------


class TestRoundTripProperties:
    @given(ground_terms)
    @settings(max_examples=200)
    def test_ground_roundtrip(self, term):
        text = term_to_string(term)
        reparsed = parse_term(text)
        assert structural_eq(reparsed, term), f"{text!r} -> {reparsed!r}"

    @given(open_terms())
    def test_open_roundtrip_modulo_renaming(self, term):
        text = term_to_string(term)
        reparsed = parse_term(text)
        assert term_to_string(reparsed) == text

    @given(any_atom_names)
    @settings(max_examples=400)
    def test_atom_roundtrip(self, name):
        text = term_to_string(Atom(name))
        assert parse_term(text) == Atom(name), text

    @given(any_atom_names, st.sampled_from([Atom("x"), Atom("[]"), 1, -2, -2.5]))
    @settings(max_examples=400)
    def test_unary_struct_roundtrip(self, name, argument):
        term = Struct(name, (argument,))
        text = term_to_string(term)
        assert structural_eq(parse_term(text), term), text


# -- reader robustness ---------------------------------------------------------------

#: Pieces of Prolog text, so that generated input reaches the parser.
TEXT_FRAGMENTS = [
    "foo", "X", "_", "f(", ")", "[", "]", "|", "{", "}", ", ", ":-", "-", "=..",
    "\\+", ".", ". ", "!", ";", "0'", "0'a", "12", "2.5e3", "'q'", "'\\", '"s"',
    "% c\n", "/*", "*/", " ", "\n", "²", "٣", "é", "Ω", "op(700, xfx, is)",
]

reader_texts = st.one_of(
    st.text(max_size=30),
    st.lists(st.sampled_from(TEXT_FRAGMENTS), max_size=15).map("".join),
)


class TestReaderRobustness:
    """Malformed text raises :class:`PrologSyntaxError`, never a Python error."""

    @given(reader_texts)
    @settings(max_examples=400)
    def test_parse_terms_reads_or_raises_syntax_error(self, text):
        try:
            parse_terms(text)
        except PrologSyntaxError:
            pass

    @given(reader_texts)
    @settings(max_examples=400)
    def test_parse_term_reads_or_raises_syntax_error(self, text):
        try:
            parse_term(text)
        except PrologSyntaxError:
            pass

    @pytest.mark.parametrize("text", ["X = 0'", "X = 2²"])
    def test_known_crash_inputs_raise_syntax_errors(self, text):
        with pytest.raises(PrologSyntaxError):
            parse_term(text)

    def test_overlong_integer_reads_or_raises_syntax_error(self):
        # int() refuses more than 4300 digits on Pythons with the limit.
        try:
            parse_term("X = " + "1" * 5000)
        except PrologSyntaxError:
            pass


# -- standard order properties -----------------------------------------------------


class TestOrderProperties:
    @given(ground_terms, ground_terms)
    def test_total_order(self, left, right):
        lk, rk = term_ordering_key(left), term_ordering_key(right)
        assert (lk < rk) + (lk > rk) + (lk == rk) == 1

    @given(ground_terms, ground_terms, ground_terms)
    def test_transitive(self, a, b, c):
        ka, kb, kc = map(term_ordering_key, (a, b, c))
        if ka <= kb and kb <= kc:
            assert ka <= kc

    @given(ground_terms)
    def test_equal_iff_structurally_equal(self, term):
        other = copy_term(term)
        assert term_ordering_key(other) == term_ordering_key(term)
