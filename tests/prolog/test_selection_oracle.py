"""Differential oracle for ``Database.select``'s per-predicate tables.

``Database.matching_for`` (the interpreter's selection, and the
compiled engine's while an event bus is attached) keeps its own lazily
built buckets, and the old selection rule fed the VM every bound
argument's key whenever more than one candidate was left. Both stay
here as the oracle: for generated predicates of arity 0-3 (atoms,
ints, ``1`` against ``1.0``, compound heads, variable heads, repeated
keys), every bind pattern of a call, and every indexing knob, ``select``
must return the same candidates in the same order, leave out only
fingerprint checks that cannot reject, and drive the VM to the oracle's
answers and counters, before and after each kind of mutation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prolog import Clause, Database, Engine
from repro.prolog.database import first_arg_key
from repro.prolog.terms import Atom, Struct, Var

#: Head argument tokens; ``X`` is one variable shared within a head.
HEAD_TOKENS = ("a", "b", "c", 1, 2, 1.0, "f(a)", "f(_)", "g(a,b)", "_", "X")
#: Call argument tokens (a bind pattern may still free any position).
CALL_TOKENS = ("a", "b", "c", 1, 2, 1.0, "f(a)", "f(_)", "f(b)", "g(a,b)", "d")

CONFIGURATIONS = (
    {},
    {"index_argument": 1},
    {"indexing": False},
)

VM_COUNTERS = (
    "calls",
    "unifications",
    "head_fast_rejects",
    "backtracks",
    "clause_entries",
    "skeleton_instantiations",
)
#: The counters the seed interpreter also charges.
SHARED_COUNTERS = ("calls", "unifications", "backtracks", "clause_entries")


def term(token, shared):
    """A fresh term for one generated token."""
    if token == "_":
        return Var()
    if token == "X":
        return shared
    if isinstance(token, (int, float)):
        return token
    if token == "f(_)":
        return Struct("f", (Var(),))
    if token.startswith("f("):
        return Struct("f", (Atom(token[2]),))
    if token == "g(a,b)":
        return Struct("g", (Atom("a"), Atom("b")))
    return Atom(token)


def head(arity, tokens):
    shared = Var("X")
    args = tuple(term(token, shared) for token in tokens)
    return Struct("p", args) if arity else Atom("p")


def fact(arity, tokens):
    return Clause(head(arity, tokens), Atom("true"))


def build(arity, heads, **options):
    """``p/arity`` from ``heads``, plus ``probe/arity :- p`` so calls
    also enter through the VM's inline call path."""
    database = Database(**options)
    for tokens in heads:
        database.add_clause(fact(arity, tokens))
    variables = tuple(Var(f"V{i}") for i in range(arity))
    probe_head = Struct("probe", variables) if arity else Atom("probe")
    body = Struct("p", variables) if arity else Atom("p")
    database.add_clause(Clause(probe_head, body))
    return database


def call_args(tokens, mask):
    """A call's arguments: ``tokens`` where ``mask`` binds, else a
    named variable (so answers report the binding)."""
    return tuple(
        term(token, None) if bound else Var(f"A{position}")
        for position, (token, bound) in enumerate(zip(tokens, mask))
    )


def masks(arity):
    return [
        tuple(bool(bits >> position & 1) for position in range(arity))
        for bits in range(2 ** arity)
    ]


def oracle_select(database):
    """The old selection: ``matching_for``'s candidates, and every bound
    argument's key when more than one candidate is left; no scan plan,
    so the VM takes the per-clause fingerprint loop."""

    def select(indicator, args):
        clauses = database.matching_for(indicator, args)
        keys = tuple(map(first_arg_key, args))
        bound = ()
        if len(clauses) > 1:
            bound = tuple(p for p, key in enumerate(keys) if key is not None)
        return (
            clauses, database.compiled_program(indicator),
            keys if bound else None, bound, None,
        )

    return select


def outcome(database, goal, compiled=True):
    solutions, metrics = Engine(database, compiled=compiled).run(goal)
    counters = metrics.to_dict()
    return sorted(map(repr, (s.key() for s in solutions))), counters


def check_call(database, arity, args):
    indicator = ("p", arity)
    selection = database.select(indicator, args)
    expected = database.matching_for(indicator, args)
    assert [id(c) for c in selection[0]] == [id(c) for c in expected]
    goal_keys, positions = selection[2], selection[3]
    keys = [first_arg_key(arg) for arg in args]
    for position in positions:
        assert keys[position] is not None
        assert goal_keys[position] == keys[position]
    if len(selection[0]) > 1:
        # A bound position left out of the fingerprint loop rejects no
        # candidate.
        program = selection[1]
        for position, key in enumerate(keys):
            if key is None or position in positions:
                continue
            for clause in selection[0]:
                assert program[clause.index].head_keys[position] in (None, key)

    for name in ("p", "probe"):
        goal = Struct(name, args) if arity else Atom(name)
        answers, counters = outcome(database, goal)
        database.select = oracle_select(database)
        try:
            oracle_answers, oracle_counters = outcome(database, goal)
        finally:
            del database.select
        assert answers == oracle_answers
        assert {k: counters[k] for k in VM_COUNTERS} == {
            k: oracle_counters[k] for k in VM_COUNTERS
        }
        seed_answers, seed_counters = outcome(database, goal, compiled=False)
        assert answers == seed_answers
        assert {k: counters[k] for k in SHARED_COUNTERS} == {
            k: seed_counters[k] for k in SHARED_COUNTERS
        }


def check_database(database, arity, call_tokens):
    for mask in masks(arity):
        check_call(database, arity, call_args(call_tokens, mask))


@st.composite
def programs(draw):
    arity = draw(st.integers(0, 3))
    row = st.lists(st.sampled_from(HEAD_TOKENS), min_size=arity, max_size=arity)
    heads = draw(st.lists(row, min_size=1, max_size=8))
    extra = draw(row)
    replacement = draw(st.lists(row, min_size=1, max_size=5))
    call = draw(
        st.lists(st.sampled_from(CALL_TOKENS), min_size=arity, max_size=arity)
    )
    configuration = draw(st.sampled_from(CONFIGURATIONS))
    return arity, heads, extra, replacement, call, configuration


class TestSelectionOracle:
    @settings(max_examples=120, deadline=None)
    @given(programs())
    def test_select_matches_the_oracle(self, program):
        arity, heads, _extra, _replacement, call, configuration = program
        check_database(build(arity, heads, **configuration), arity, call)

    @settings(max_examples=40, deadline=None)
    @given(programs())
    def test_select_matches_the_oracle_after_mutations(self, program):
        arity, heads, extra, replacement, call, configuration = program
        database = build(arity, heads, **configuration)
        check_database(database, arity, call)  # warm every table
        indicator = ("p", arity)

        database.add_clause(fact(arity, extra))
        check_database(database, arity, call)

        database.replace_predicate(
            indicator, [fact(arity, tokens) for tokens in replacement]
        )
        check_database(database, arity, call)

        database.remove_predicate(indicator)
        for tokens in reversed(heads):
            database.add_clause(fact(arity, tokens))
        check_database(database, arity, call)

    @settings(max_examples=40, deadline=None)
    @given(programs(), st.sampled_from(CONFIGURATIONS))
    def test_knob_change_matches_the_oracle(self, program, after):
        arity, heads, _extra, _replacement, call, configuration = program
        database = build(arity, heads, **configuration)
        check_database(database, arity, call)
        for knob, value in {
            "indexing": True, "index_argument": "multi", **after,
        }.items():
            setattr(database, knob, value)
        check_database(database, arity, call)
