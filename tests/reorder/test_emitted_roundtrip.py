"""Every clause the reorderer emits re-reads as the term it wrote.

``Reorderer`` output is Prolog text that users consult again, so a
clause the writer renders ambiguously changes the program's answers
(``Y is -(2 ** X)`` written as ``Y is - 2 ** X`` reads back as
``(-2) ** X``). For the golden-fixture programs, the seeded fact-table
programs of ``fact_table_digests.json``, the generated long-body
programs of ``perfbench/generators.py`` and a program of prefix-minus
expressions, each clause of the emitted source must read back as a
variant of the clause term that was written.
"""

import random

import pytest

from repro.prolog import Database
from repro.prolog.reader.parser import parse_terms
from repro.prolog.tabling.variant import variant_key
from repro.prolog.writer import term_to_string
from repro.reorder import Reorderer
from tests.prolog.test_reader_oracle import _load_generators
from tests.reorder.test_fact_tables import PROGRAMS, fact_table_program
from tests.reorder.test_golden import FIXTURES, database_for, load_fixture

#: Operands of a prefix ``-`` whose text starts with a number token.
PREFIX_MINUS = """
p(X, Y) :- Y is -(2 ** X).
q(Y) :- p(2, Y).
r(X, Y) :- Y is -(1.5 ** X) - -(1 ^ 2), Y < 0.
"""


def assert_rereads(database):
    program = Reorderer(database).reorder()
    written = program.database.to_terms()
    # The source opens with one ``:- table`` directive per tabled predicate.
    reread = parse_terms(program.source(), program.database.operators)
    reread = reread[len(program.database.tabled):]
    assert len(reread) == len(written)
    for before, after in zip(written, reread):
        assert variant_key(after) == variant_key(before), term_to_string(before)


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_golden_programs(path):
    assert_rereads(database_for(load_fixture(path)["name"]))


@pytest.mark.parametrize("seed", range(PROGRAMS))
def test_fact_table_programs(seed):
    assert_rereads(Database.from_source(fact_table_program(seed)))


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_long_body_programs(seed):
    program = _load_generators().long_body_program(
        random.Random(seed), f"generated{seed}", 5, (5, 6, 7), 0.3
    )
    assert_rereads(Database.from_source(program.source))


def test_prefix_minus_program():
    assert_rereads(Database.from_source(PREFIX_MINUS))


#: Operators the program adds to the standard table, of each kind.
USER_OPERATORS = """
:- op(700, xfx, ===>).
:- op(200, xfy, ^^).
:- op(900, fy, nicht).
A ===> B :- A = B.
nicht X :- \\+ X.
p(X, Z) :- X ===> a, nicht fail, Y = X ^^ b, Y = (_ ^^ Z).
"""


def test_user_operators_reread_without_a_table():
    program = Reorderer(Database.from_source(USER_OPERATORS)).reorder()
    source = program.source()
    # No operator table is passed: the emitted ``:- op`` lines declare them.
    reread = Database.from_source(source)
    written = program.database.to_terms()
    assert [variant_key(term) for term in reread.to_terms()] == [
        variant_key(term) for term in written
    ]
    assert source.startswith(
        ":- op(900, fy, nicht).\n:- op(700, xfx, ===>).\n:- op(200, xfy, ^^).\n"
    )
