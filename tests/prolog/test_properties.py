"""Property-based tests (hypothesis) for the Prolog substrate invariants:
unification algebra, trail discipline, parser/writer round-trips,
reader robustness, and standard-order laws."""

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.errors import PrologSyntaxError
from repro.prolog.compile import CompiledClause
from repro.prolog.reader.lexer import SYMBOL_CHARS
from repro.prolog.reader.operators import standard_operators
from repro.prolog.reader.parser import parse_term, parse_terms
from repro.prolog.tabling.variant import variant_key
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
from repro.prolog.writer import program_to_string, term_to_string

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


#: User-defined operators whose names the writer must quote.
USER_OPERATORS = [(700, "xfx", "my op"), (200, "xfy", "Then"), (300, "fy", "not yet")]
#: Atoms a clause may end in: symbol runs (the clause end after them is
#: `` .``), operators written as plain atoms, and the user operators'
#: names.
clause_atoms = st.sampled_from(
    ["a", "+", "-", "=..", ":-", "\\+", "*", "[]", "!", ";", "it's"]
    + [name for _priority, _kind, name in USER_OPERATORS]
).map(Atom)


@st.composite
def clause_terms(draw):
    """A fact, a rule or a directive whose body mixes builtin and
    user-defined operators over shared clause variables."""
    pool = [Var("X"), Var("Y"), Var("Z")]

    def term(depth):
        kind = draw(st.integers(min_value=0, max_value=4 if depth < 3 else 2))
        if kind == 0:
            return draw(clause_atoms)
        if kind == 1:
            return draw(numbers)
        if kind == 2:
            return pool[draw(st.integers(min_value=0, max_value=2))]
        if kind == 3:
            _priority, op_type, name = draw(st.sampled_from(USER_OPERATORS))
            arity = 1 if op_type == "fy" else 2
            return Struct(name, tuple(term(depth + 1) for _ in range(arity)))
        name = draw(st.sampled_from(["f", "=", "is", "-", "my op", "\\+"]))
        arity = draw(st.integers(min_value=1, max_value=2))
        return Struct(name, tuple(term(depth + 1) for _ in range(arity)))

    def goal():
        if draw(st.booleans()):
            return Struct("=", (pool[0], term(1)))
        return Struct(draw(functor_names), (term(1),))

    head = Struct(draw(functor_names), (term(1), term(1)))
    shape = draw(st.integers(min_value=0, max_value=2))
    if shape == 0:
        return head
    goals = [goal() for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    body = goals[-1]
    for previous in reversed(goals[:-1]):
        body = Struct(",", (previous, body))
    if shape == 1:
        return Struct(":-", (head, body))
    return Struct(":-", (body,))


class TestClauseRoundTripProperties:
    @pytest.mark.parametrize(
        "source, written",
        [("+", "+ ."), ("f(X) :- g(X), =..", "f(X) :-\n    g(X),\n    =.. ."),
         ("f(X) :- X = (+)", "f(X) :-\n    X = (+).")],
    )
    def test_symbol_atom_ends_clause(self, source, written):
        clause = parse_term(source)
        text = program_to_string([clause])
        assert text == written + "\n"
        [reread] = parse_terms(text)
        assert variant_key(reread) == variant_key(clause)

    @given(st.lists(clause_terms(), min_size=1, max_size=4))
    @example([parse_term("p(X, Y) :- Y is -(2 ** X)")])
    @example([parse_term("q(Y) :- Y = -(1 ^ a), Y \\== -(1.5 ** 2)")])
    @settings(max_examples=300)
    def test_program_roundtrip(self, clauses):
        # The program declares the user operators, so the reader parses
        # the clauses after the directives with them.
        directives = [
            Struct(":-", (Struct("op", (priority, Atom(kind), Atom(name))),))
            for priority, kind, name in USER_OPERATORS
        ]
        operators = standard_operators()
        for priority, kind, name in USER_OPERATORS:
            operators.add(priority, kind, name)
        program = directives + clauses
        text = program_to_string(program, operators)
        reread = parse_terms(text)
        assert [variant_key(t) for t in reread] == [
            variant_key(t) for t in program
        ], text


# -- compiled head unification vs the general unifier --------------------------

#: Head arguments: atoms, numbers (``1`` against ``1.0``), compounds and
#: variables that may repeat.
head_leaves = st.sampled_from([Atom("a"), Atom("b"), Atom("[]"), 1, 1.0, 2])


@st.composite
def head_and_goal(draw):
    """A clause head, and goal arguments: free variables, bound variable
    chains, atoms, numbers and compounds."""
    head_pool = [Var("A"), Var("B")]

    def head_arg(depth):
        kind = draw(st.integers(min_value=0, max_value=2 if depth < 2 else 1))
        if kind == 0:
            return draw(head_leaves)
        if kind == 1:
            return head_pool[draw(st.integers(min_value=0, max_value=1))]
        arity = draw(st.integers(min_value=1, max_value=2))
        return Struct("g", tuple(head_arg(depth + 1) for _ in range(arity)))

    goal_pool = [Var("P"), Var("Q"), Var("R")]

    def goal_arg(depth):
        kind = draw(st.integers(min_value=0, max_value=3 if depth < 2 else 2))
        if kind == 0:
            return draw(head_leaves)
        if kind == 1:
            return goal_pool[draw(st.integers(min_value=0, max_value=2))]
        if kind == 2:
            # A chain of bound variables ending in a leaf or a free one.
            links = draw(st.integers(min_value=1, max_value=3))
            end = goal_arg(2) if draw(st.booleans()) else Var("E")
            for _ in range(links):
                link = Var("L")
                link.ref = end
                end = link
            return end
        arity = draw(st.integers(min_value=1, max_value=2))
        return Struct("g", tuple(goal_arg(depth + 1) for _ in range(arity)))

    arity = draw(st.integers(min_value=1, max_value=4))
    head = Struct("p", tuple(head_arg(0) for _ in range(arity)))
    goal_args = tuple(goal_arg(0) for _ in range(arity))
    return head, goal_args, goal_pool


class TestUnifyHeadDifferential:
    @given(head_and_goal())
    @settings(max_examples=400)
    def test_unify_head_agrees_with_unify(self, case):
        head, goal_args, pool = case
        # The goal variables' values after each attempt, as variant keys
        # (the two attempts bind them to different head variables).
        watched = Struct("s", tuple(pool) + goal_args)
        free = term_variables(watched)
        trail = Trail()
        # The occurs check keeps the bindings acyclic, so they have keys.
        clause = CompiledClause(head, Atom("true"))
        frame = clause.unify_head(goal_args, trail, occurs_check=True)
        compiled = None if frame is None else variant_key(watched)
        trail.undo_to(0)
        # Every binding the attempt made was trailed.
        assert all(var.ref is None for var in free)
        succeeded = unify(
            Struct("p", goal_args), copy_term(head), trail, occurs_check=True
        )
        plain = variant_key(watched) if succeeded else None
        trail.undo_to(0)
        assert (frame is not None) == succeeded
        assert compiled == plain


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
