"""Differential oracle: the regex-run lexer against the reference lexer.

``reference_lexer.Lexer`` is the character-at-a-time scanner the reader
used before. For every text below, :func:`tokenize` must give the same
tokens (type, value, line, column, functor flag) or the same error
(message, line, column), and the parser must build the same terms
(writer text and variable sharing) as when it is fed the reference
tokens.

The texts: the bundled programs and their reorderer output, the
``.pl`` files under ``examples/`` and ``tests/``, three generated
long-body programs from ``perfbench/generators.py``, the paper-sweep
query strings, and hypothesis-generated text.

Two differences are deliberate; :func:`_allowed_divergence` names them:

* **Non-decimal digits.** The reference scans digit runs with
  ``str.isdigit``, which accepts ``²``. ``int('²')`` then raised
  ``ValueError`` in the parser. Digits are now ``str.isdecimal`` (what
  ``int()`` and ``float()`` accept), so ``²`` is an unexpected
  character.
* **``0'`` at the end of input.** The reference raised ``TypeError``
  from ``ord('')``; it is now a :class:`PrologSyntaxError`.
"""

import functools
import importlib.util
import itertools
import random
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis.modes import parse_mode_string
from repro.errors import PrologSyntaxError
from repro.experiments.harness import label_to_mode, mode_queries
from repro.programs import REGISTRY, corporate, family_tree
from repro.prolog.database import Database
from repro.prolog.reader.lexer import tokenize
from repro.prolog.reader.parser import Parser, parse_term
from repro.prolog.terms import Struct, Var, deref
from repro.prolog.writer import term_to_string
from repro.reorder import Reorderer
from tests.prolog.reference_lexer import reference_tokenize

ROOT = Path(__file__).resolve().parents[2]
MODES = ("--", "-+", "+-", "++")


def _load_generators():
    """``perfbench/generators.py`` by path: perfbench is not a package."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_generators", ROOT / "perfbench" / "generators.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _sources():
    texts = {name: module.source() for name, module in REGISTRY.items()}
    generators = _load_generators()
    for seed in (1, 2, 3):
        program = generators.long_body_program(
            random.Random(seed), f"generated{seed}", 5, (5, 6, 7), 0.3
        )
        texts[program.name] = program.source
    for path in itertools.chain(
        (ROOT / "examples").rglob("*.pl"), (ROOT / "tests").rglob("*.pl")
    ):
        texts[str(path.relative_to(ROOT))] = path.read_text()
    return texts


#: Bundled programs, generated long-body programs and ``.pl`` files.
SOURCES = _sources()


@functools.lru_cache(maxsize=None)
def _reordered(name):
    return Reorderer(Database.from_source(SOURCES[name])).reorder()


def _paper_sweep_queries():
    """The paper-sweep workload's query strings, drawn as perfbench draws
    them: each tested family-tree predicate in all four modes (a fixed
    sample of 24 per mode), the Table III and Table IV queries, and each
    moded query again under its reordered version's name."""
    sample = random.Random(0)
    groups = []
    for name, arity in family_tree.TESTED_PREDICATES:
        for text in MODES:
            mode = parse_mode_string(text)
            queries = mode_queries(name, mode, family_tree.PERSONS)
            if len(queries) > 24:
                queries = sample.sample(queries, 24)
            groups.append(("family_tree", (name, arity), mode, queries))
    labelled = [("corporate", label, [query]) for label, query in corporate.TABLE3_QUERIES]
    for program in ("p58", "meal", "team", "kmbench"):
        labelled.extend(
            (program, label, queries) for label, queries in REGISTRY[program].TABLE4_QUERIES
        )
    for program, label, queries in labelled:
        if "(" in label:
            mode = label_to_mode(label)
            groups.append((program, (label[: label.index("(")], len(mode)), mode, queries))
        else:
            groups.append((program, None, None, queries))
    strings = set()
    for program, indicator, mode, queries in groups:
        strings.update(queries)
        if indicator is not None:
            version = _reordered(program).version_name(indicator, mode) or indicator[0]
            strings.update(version + query[len(indicator[0]):] for query in queries)
    return sorted(strings)


# -- comparison ---------------------------------------------------------------


def _lexed(tokenizer, text):
    """Token fields, or ("error", message, line, column)."""
    try:
        return [(t.type, t.value, t.line, t.column, t.functor) for t in tokenizer(text)]
    except PrologSyntaxError as error:
        return ("error", str(error), error.line, error.column)


def _reference_lexed(text):
    try:
        return _lexed(reference_tokenize, text)
    except TypeError:
        return ("crash", "TypeError")


def _allowed_divergence(text, expected, actual):
    """The two deliberate differences from the reference lexer."""
    if actual[0] != "error":
        return False
    # A non-decimal digit such as '²' where the reference read a number.
    if any(
        actual[1].startswith(f"unexpected character {char!r}")
        for char in set(text)
        if char.isdigit() and not char.isdecimal()
    ):
        return True
    # ``0'`` at the end of input.
    return (
        expected == ("crash", "TypeError")
        and text.endswith("0'")
        and actual[1].startswith("missing character after 0'")
    )


def assert_same_tokens(text):
    expected = _reference_lexed(text)
    actual = _lexed(tokenize, text)
    if actual != expected:
        assert _allowed_divergence(text, expected, actual), (text, expected, actual)
    return actual


def _shape(term):
    """Writer text plus the variable-sharing pattern: each variable
    occurrence numbered by its first occurrence."""
    first = {}
    pattern = []
    stack = [term]
    while stack:
        current = deref(stack.pop())
        if isinstance(current, Var):
            pattern.append(first.setdefault(id(current), len(first)))
        elif isinstance(current, Struct):
            stack.extend(reversed(current.args))
    return term_to_string(term), tuple(pattern)


def _read(parser):
    try:
        return [_shape(term) for term in parser.read_program()]
    except PrologSyntaxError as error:
        return ("error", str(error), error.line, error.column)


def assert_same_terms(text):
    """The parser builds the same terms from either token stream."""
    reference = Parser(text)
    reference.tokens = reference_tokenize(text)
    assert _read(Parser(text)) == _read(reference), text


# -- fixed texts ----------------------------------------------------------------


def assert_same_reading(text):
    tokens = assert_same_tokens(text)
    assert tokens[0] != "error", tokens
    assert_same_terms(text)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_source_matches_reference(name):
    assert_same_reading(SOURCES[name])


@pytest.mark.parametrize("name", sorted(set(REGISTRY) | {"generated1", "generated2", "generated3"}))
def test_reorderer_output_matches_reference(name):
    assert_same_reading(_reordered(name).source())


def test_paper_sweep_queries_match_reference():
    queries = _paper_sweep_queries()
    assert len(queries) > 1000
    for query in queries:
        assert_same_tokens(query)
        reference = Parser(query + " .")
        reference.tokens = reference_tokenize(query + " .")
        assert [_shape(parse_term(query))] == _read(reference), query


@pytest.mark.parametrize("text, message", [
    ("X = 2²", "unexpected character '²'"),
    ("X = ²", "unexpected character '²'"),
    ("X = 1.²", "unexpected character '²'"),
    ("X = 0'", "missing character after 0'"),
])
def test_named_divergences(text, message):
    """The reference crashes or misreads these; the lexer raises."""
    with pytest.raises(PrologSyntaxError, match=message):
        tokenize(text)
    assert _allowed_divergence(text, _reference_lexed(text), _lexed(tokenize, text))


def test_decimal_digits_of_other_scripts_still_read():
    (token, _eof) = tokenize("٣")
    assert token.value == "٣" and int(token.value) == 3
    assert _shape(parse_term("f(٣)")) == ("f(3)", ())


# -- hypothesis-generated text ----------------------------------------------------

#: Characters that exercise every lexical class and boundary.
ALPHABET = (
    "abzAZ_09 \t\r\n%/*'\"\\.,|()[]{}!;+-*^<>=~:?@#&$`"
    "éΩǅß²٣Ⅷ½́ "
)

#: Fragments that make well-formed and near-miss tokens likely.
FRAGMENTS = [
    "foo", "X", "_Y", "_", "f(", ")", "[", "]", "[]", "{}", "{", "}", ", ",
    " | ", ":-", "-->", "=..", "\\+", ".", ". ", ".\n", "!", ";", "0'a", "0'\\n",
    "0''", "0'", "12", "3.14", "1.5e10", "2e-3", "1.e5", "'q'", "'it''s'",
    "'a\\nb'", "'\\q'", "\"str\"", "\"a\"\"b\"", "% c\n", "/* c */", "/*",
    " ", "\n", "\t", "-1", "- 1", "a- 1", "é", "Ω", "²", "٣", "'", "\\",
]

texts = st.one_of(
    st.text(alphabet=ALPHABET, max_size=40),
    st.lists(st.sampled_from(FRAGMENTS), max_size=20).map("".join),
)


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(texts)
def test_generated_text_matches_reference(text):
    tokens = assert_same_tokens(text)
    if tokens[0] != "error":
        assert_same_terms(text)
