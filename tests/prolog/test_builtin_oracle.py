"""Pinned answers for every deterministic builtin in a compiled clause body.

The VM and the seed interpreter (``Engine(compiled=False)``) call the
same registered function for a builtin registered ``det=True``, so
agreement between the two engines no longer checks what a builtin
means. This table does. Each case runs ``t(Vars) :- Goal.`` and pins
the answer that was recorded while the VM still ran its own second
copies of these builtins:

* the bindings of the one answer (fresh variables numbered ``_0``,
  ``_1``, ... by first appearance), ``None`` for failure, or the class
  name of the error raised;
* the text written to ``engine.output``;

and checks that the interpreter gives the same answer and the same
``Metrics`` counters, that the goal compiles to a ``VM_DET`` op calling
the registered function, and that the compiled clause pickles (the
process serve backend ships compiled programs).

Each builtin has a success, a failure and an error case, except where
it cannot fail (:data:`CANNOT_FAIL`) or raise (:data:`CANNOT_RAISE`).
A case entry is ``(goal, expected)``, optionally followed by the
expected output and by the terms queued for ``read/1``/``get0/1``.
"""

import pickle
import re

import pytest

from repro.errors import ReproError
from repro.prolog import Engine
from repro.prolog.builtins import BUILTINS
from repro.prolog.compile import VM_DET
from repro.prolog.reader.parser import parse_term
from repro.prolog.terms import term_variables
from repro.prolog.writer import term_to_string

CASES = {
    ('is', 2): [
        ('X is 2 + 3 * 4', {'X': '14'}),
        ('N = 5, X is N * 2 - 1', {'N': '5', 'X': '9'}),
        ('3 is 1 + 1', None),
        ('X is foo + 1', 'ArithmeticErrorProlog'),
        ('X is Y + 1', 'InstantiationError'),
    ],
    ('=:=', 2): [
        ('1 + 1 =:= 2', {}),
        ('N = 2.0, N =:= 3', None),
        ('X =:= 1', 'InstantiationError'),
    ],
    ('=\\=', 2): [
        ('N = 1, N =\\= 2', {'N': '1'}),
        ('2 =\\= 1 + 1', None),
        ('a =\\= 1', 'ArithmeticErrorProlog'),
    ],
    ('<', 2): [
        ('N = 1, N < 2', {'N': '1'}),
        ('2 < 1', None),
        ('X < 1', 'InstantiationError'),
    ],
    ('>', 2): [
        ('N = 3, N > 2.5', {'N': '3'}),
        ('1 > 2', None),
        ('f(1) > 0', 'ArithmeticErrorProlog'),
    ],
    ('=<', 2): [
        ('2 =< 2', {}),
        ('N = 3, N =< 2', None),
        ('1 =< X', 'InstantiationError'),
    ],
    ('>=', 2): [
        ('N = 2, N >= 2', {'N': '2'}),
        ('1 >= 2', None),
        ('1 >= foo', 'ArithmeticErrorProlog'),
    ],
    ('succ', 2): [
        ('succ(3, X)', {'X': '4'}),
        ('succ(X, 4)', {'X': '3'}),
        ('succ(X, 0)', None),
        ('succ(3, 5)', None),
        ('succ(X, Y)', 'InstantiationError'),
        ('succ(-1, X)', 'TypeErrorProlog'),
    ],
    ('=', 2): [
        ('f(X, b) = f(a, Y)', {'X': 'a', 'Y': 'b'}),
        ('f(X, b) = f(a, c)', None),
        ('between(1, 2, N), f(X, N) = f(N, 2)', {'N': '2', 'X': '2'}),
    ],
    ('\\=', 2): [
        ('a \\= b', {}),
        ('f(X) \\= f(a)', None),
        ('X = 1, X \\= 2', {'X': '1'}),
    ],
    ('==', 2): [
        ('X = a, X == a', {'X': 'a'}),
        ('X == Y', None),
    ],
    ('\\==', 2): [
        ('X \\== Y', {'X': 'X', 'Y': 'Y'}),
        ('a \\== a', None),
    ],
    ('@<', 2): [
        ('a @< b', {}),
        ('f(b) @< f(a)', None),
        ('a @< a', None),
        ('X @< 1', {'X': 'X'}),
    ],
    ('@>', 2): [
        ('b @> a', {}),
        ('1.0 @> 1', None),
        ('f(a) @> f(a)', None),
        ('a @> f(a)', None),
    ],
    ('@=<', 2): [
        ('a @=< a', {}),
        ('b @=< a', None),
        ('1 @=< 1.0', None),
    ],
    ('@>=', 2): [
        ('a @>= a', {}),
        ('a @>= b', None),
        ('f(a) @>= g', {}),
    ],
    ('compare', 3): [
        ('compare(O, 1, 2)', {'O': '<'}),
        ('compare(O, f(b), f(a))', {'O': '>'}),
        ('compare(O, a, a)', {'O': '='}),
        ('compare(=, a, b)', None),
    ],
    ('var', 1): [
        ('var(X)', {'X': 'X'}),
        ('X = a, var(X)', None),
    ],
    ('nonvar', 1): [
        ('nonvar(f(X))', {'X': 'X'}),
        ('nonvar(X)', None),
    ],
    ('atom', 1): [
        ('atom(abc)', {}),
        ('atom(1)', None),
    ],
    ('number', 1): [
        ('number(1.5)', {}),
        ('number(a)', None),
    ],
    ('integer', 1): [
        ('integer(3)', {}),
        ('integer(3.0)', None),
    ],
    ('float', 1): [
        ('float(3.0)', {}),
        ('float(3)', None),
    ],
    ('atomic', 1): [
        ('atomic(a)', {}),
        ('atomic(f(a))', None),
    ],
    ('compound', 1): [
        ('compound(f(a))', {}),
        ('compound([])', None),
    ],
    ('callable', 1): [
        ('callable(foo)', {}),
        ('callable(3)', None),
    ],
    ('is_list', 1): [
        ('is_list([a, b])', {}),
        ('is_list([a | T])', None),
    ],
    ('ground', 1): [
        ('ground(f(a, [b]))', {}),
        ('ground(f(a, X))', None),
    ],
    ('atom_codes', 2): [
        ('atom_codes(abc, L)', {'L': '[97, 98, 99]'}),
        ('atom_codes(A, [104, 105])', {'A': 'hi'}),
        ('atom_codes(12, L)', {'L': '[49, 50]'}),
        ('atom_codes(abc, [97])', None),
        ('atom_codes(abc, [X, Y, 100])', None),
        ('atom_codes(A, L)', 'InstantiationError'),
        ('atom_codes(f(x), L)', 'TypeErrorProlog'),
        ('atom_codes(A, [a])', 'TypeErrorProlog'),
    ],
    ('number_codes', 2): [
        ('number_codes(12, L)', {'L': '[49, 50]'}),
        ('number_codes(N, [52, 50])', {'N': '42'}),
        ('number_codes(N, [49, 46, 53])', {'N': '1.5'}),
        ('number_codes(3, [52])', None),
        ('number_codes(a, L)', 'TypeErrorProlog'),
        ('number_codes(N, [97])', 'TypeErrorProlog'),
    ],
    ('name', 2): [
        ('name(foo, L)', {'L': '[102, 111, 111]'}),
        ('name(X, [49, 50])', {'X': '12'}),
        ('name(X, [102, 111])', {'X': 'fo'}),
        ('name(foo, [102])', None),
        ('name(f(x), L)', 'TypeErrorProlog'),
        ('name(X, Y)', 'InstantiationError'),
    ],
    ('atom_length', 2): [
        ('atom_length(hello, N)', {'N': '5'}),
        ('atom_length(abc, 2)', None),
        ('atom_length(X, N)', 'InstantiationError'),
        ('atom_length(12, N)', 'TypeErrorProlog'),
    ],
    ('msort', 2): [
        ('msort([b, a, c, a], L)', {'L': '[a, a, b, c]'}),
        ('msort([b, a], [b, a])', None),
        ('between(1, 2, N), msort([N, f(N)], [X, f(2)])', {'N': '2', 'X': '2'}),
        ('msort(X, L)', 'InstantiationError'),
    ],
    ('sort', 2): [
        ('sort([b, a, c, a], L)', {'L': '[a, b, c]'}),
        ('sort([a], [])', None),
        ('sort([a | T], L)', 'InstantiationError'),
    ],
    ('keysort', 2): [
        ('keysort([b-1, a-2, b-0], L)', {'L': '[a - 2, b - 1, b - 0]'}),
        ('keysort([a-1], [])', None),
        ('keysort([a], L)', 'TypeErrorProlog'),
    ],
    ('functor', 3): [
        ('functor(f(a, b), N, A)', {'N': 'f', 'A': '2'}),
        ('functor(T, g, 2)', {'T': 'g(_0, _1)'}),
        ('functor(T, abc, 0)', {'T': 'abc'}),
        ('functor(3, N, A)', {'N': '3', 'A': '0'}),
        ('functor(f(a), f, 2)', None),
        ('between(1, 2, A), functor(f(a, b), F, A)', {'A': '2', 'F': 'f'}),
        ('functor(T, N, 2)', 'InstantiationError'),
        ('functor(T, f, a)', 'TypeErrorProlog'),
        ('functor(T, f(x), 1)', 'TypeErrorProlog'),
    ],
    ('=..', 2): [
        ('f(a, b) =.. L', {'L': '[f, a, b]'}),
        ('T =.. [g, x, Y]', {'T': 'g(x, Y)', 'Y': 'Y'}),
        ('T =.. [abc]', {'T': 'abc'}),
        ('a =.. [b]', None),
        ('between(1, 2, N), f(N, N) =.. [F, X, 2]', {'N': '2', 'F': 'f', 'X': '2'}),
        ('T =.. L', 'InstantiationError'),
        ('T =.. []', 'TypeErrorProlog'),
        ('T =.. [f(x), a]', 'TypeErrorProlog'),
        ('T =.. [X]', 'InstantiationError'),
    ],
    ('copy_term', 2): [
        ('copy_term(f(X, Y, X), C)', {'X': 'X', 'Y': 'Y', 'C': 'f(X, Y, X)'}),
        ('copy_term(g(A, _), C)', {'A': 'A', 'C': 'g(A, _1)'}),
        ('copy_term(a, b)', None),
        ('between(1, 2, N), copy_term(f(N, N), f(X, 2))', {'N': '2', 'X': '2'}),
    ],
    ('write', 1): [
        ("write(f(X, 'A b', [1, 2], - (1)))", {'X': 'X'}, "f(X, 'A b', [1, 2], -(1))"),
    ],
    ('print', 1): [
        ('print(a + b)', {}, 'a + b'),
    ],
    ('writeln', 1): [
        ('writeln(hello)', {}, 'hello\n'),
    ],
    ('nl', 0): [
        ('nl', {}, '\n'),
    ],
    ('tab', 1): [
        ('tab(2), write(x)', {}, '  x'),
        ('tab(-1)', 'TypeErrorProlog'),
        ('tab(X)', 'InstantiationError'),
    ],
    ('put', 1): [
        ('put(65)', {}, 'A'),
        ('put(a)', 'ArithmeticErrorProlog'),
        ('put(1.5)', 'TypeErrorProlog'),
    ],
    ('read', 1): [
        ('read(T)', {'T': 'f(x, Y)'}, '', ('f(x, Y)',)),
        ('read(a)', None, '', ('b',)),
        ('read(T)', {'T': 'end_of_file'}),
    ],
    ('get0', 1): [
        ('get0(C)', {'C': '97'}, '', ('97',)),
        ('get0(98)', None, '', ('97',)),
        ('get0(C)', {'C': '-1'}),
    ],
}


#: Builtins that succeed whenever they do not raise.
CANNOT_FAIL = {
    ("write", 1), ("print", 1), ("writeln", 1), ("nl", 0), ("tab", 1), ("put", 1),
}

#: Builtins that raise no error on any arguments.
CANNOT_RAISE = {
    ("=", 2), ("\\=", 2), ("==", 2), ("\\==", 2),
    ("@<", 2), ("@>", 2), ("@=<", 2), ("@>=", 2), ("compare", 3),
    ("var", 1), ("nonvar", 1), ("atom", 1), ("number", 1), ("integer", 1),
    ("float", 1), ("atomic", 1), ("compound", 1), ("callable", 1),
    ("is_list", 1), ("ground", 1),
    ("copy_term", 2), ("write", 1), ("print", 1), ("writeln", 1), ("nl", 0),
    ("read", 1), ("get0", 1),
}


def _entries():
    for indicator, entries in CASES.items():
        for entry in entries:
            # Pad to (goal, expected, output, inputs).
            goal, expected, output, inputs = entry + ("", ())[len(entry) - 2:]
            yield pytest.param(indicator, goal, expected, output, inputs, id=goal)


def _answer(solution):
    """The answer's bindings as text, fresh variables renumbered."""
    fresh = {}

    def rename(match):
        return fresh.setdefault(match.group(), f"_{len(fresh)}")

    return {
        name: re.sub(r"_G\d+", rename, term_to_string(value))
        for name, value in solution.bindings.items()
    }


def _run(goal, inputs, compiled):
    """``(engine, outcome)`` of ``t(Vars) :- Goal`` queried once."""
    names = []
    for var in term_variables(parse_term(goal)):
        if var.name != "_" and var.name not in names:
            names.append(var.name)
    head = f"t({', '.join(names)})" if names else "t"
    engine = Engine.from_source(f"{head} :- {goal}.\n", compiled=compiled)
    engine.input_terms.extend(parse_term(text) for text in inputs)
    try:
        solutions = engine.ask(head)
    except ReproError as error:
        return engine, type(error).__name__
    assert len(solutions) <= 1, "a deterministic builtin answered twice"
    return engine, _answer(solutions[0]) if solutions else None


def _counters(engine):
    # Only the compiled path instantiates clause skeletons.
    counters = engine.metrics.to_dict()
    del counters["skeleton_instantiations"]
    return counters


@pytest.mark.parametrize("indicator, goal, expected, output, inputs", _entries())
def test_builtin_answer(indicator, goal, expected, output, inputs):
    machine, outcome = _run(goal, inputs, compiled=True)
    assert outcome == expected
    assert "".join(machine.output) == output

    reference, reference_outcome = _run(goal, inputs, compiled=False)
    assert reference_outcome == expected
    assert "".join(reference.output) == output
    assert _counters(machine) == _counters(reference)

    (predicate,) = machine.database.predicates()
    program = machine.database.compiled_program(predicate)
    code = program[0].vm_code()
    [at] = [pc for pc, op in enumerate(code) if op[1:2] == (indicator,)]
    assert code[at][0] == VM_DET and code[at][2] is BUILTINS[indicator].fn
    restored = pickle.loads(pickle.dumps(program))
    assert restored[0].vm_code()[at][2] is BUILTINS[indicator].fn


def test_every_det_builtin_has_cases():
    assert set(CASES) == {key for key, entry in BUILTINS.items() if entry.det}
    for indicator, entries in CASES.items():
        kinds = {type(entry[1]) for entry in entries}
        assert dict in kinds, indicator
        assert (type(None) in kinds) != (indicator in CANNOT_FAIL), indicator
        assert (str in kinds) != (indicator in CANNOT_RAISE), indicator
