"""Tests for user-defined operators via ``:- op/3``."""

import pytest

from repro.errors import PrologSyntaxError
from repro.prolog import Database, Engine
from repro.prolog.reader.parser import Parser
from repro.reorder.system import Reorderer

SOURCE = """
:- op(700, xfx, likes).
:- op(650, xf, squared).

mary likes wine.
john likes beer.
john likes mary.

value(X squared, V) :- V is X * X.
fan(X) :- X likes _.
"""


class TestParsing:
    def test_infix_user_operator(self):
        parser = Parser(":- op(700, xfx, likes). mary likes wine.")
        terms = parser.read_program()
        assert terms[1].indicator == ("likes", 2)

    def test_postfix_user_operator(self):
        parser = Parser(":- op(650, xf, squared). v(3 squared).")
        terms = parser.read_program()
        inner = terms[1].args[0]
        assert inner.indicator == ("squared", 1)

    def test_prefix_user_operator(self):
        parser = Parser(":- op(200, fy, very). v(very hot).")
        terms = parser.read_program()
        assert terms[1].args[0].indicator == ("very", 1)

    def test_directive_applies_only_forward(self):
        with pytest.raises(PrologSyntaxError):
            Parser("mary likes wine. :- op(700, xfx, likes).").read_program()

    def test_bad_priority_rejected(self):
        with pytest.raises(PrologSyntaxError):
            Parser(":- op(9999, xfx, likes). a.").read_program()

    def test_list_of_names(self):
        parser = Parser(":- op(700, xfx, [likes, hates]). a likes b. c hates d.")
        terms = parser.read_program()
        assert terms[1].indicator == ("likes", 2)
        assert terms[2].indicator == ("hates", 2)

    def test_empty_list_defines_nothing(self):
        parser = Parser(":- op(700, xfx, []). ok.")
        parser.read_program()
        assert parser.operators.infix("[]") is None


class TestDatabaseAndEngine:
    def test_consult_applies_ops(self):
        database = Database.from_source(SOURCE)
        assert database.defines(("likes", 2))
        assert database.defines(("fan", 1))

    def test_queries_use_database_operators(self):
        engine = Engine(Database.from_source(SOURCE))
        assert engine.succeeds("john likes beer")
        assert engine.count_solutions("X likes Y") == 3
        (solution,) = engine.ask("value(4 squared, V)")
        assert str(solution["V"]) == "16"

    def test_ops_survive_multiple_consults(self):
        database = Database.from_source(":- op(700, xfx, likes). a likes b.")
        database.consult("c likes d.")
        assert len(database.clauses(("likes", 2))) == 2

    def test_copy_shares_operators(self):
        database = Database.from_source(SOURCE)
        other = database.copy()
        other.consult("sue likes tea.")
        assert len(other.clauses(("likes", 2))) == 4


class TestReorderingWithOps:
    def test_list_form_consults_and_reorders(self):
        database = Database.from_source(
            ":- op(200, xfy, [^^]).\np(X) :- X = a^^b.\n"
        )
        assert Engine(database).count_solutions("p(a^^b)") == 1
        text = Reorderer(database).reorder().source()
        assert Engine(Database.from_source(text)).count_solutions("p(a^^b)") == 1

    def test_reorder_and_roundtrip(self):
        database = Database.from_source(SOURCE)
        program = Reorderer(database).reorder()
        engine = program.engine()
        assert engine.succeeds("fan(john)")
        # The emitted source uses the custom operator and re-parses.
        text = program.source()
        assert "likes" in text
        rebuilt = Database(indexing=True)
        rebuilt.operators = database.operators
        rebuilt.consult(text)
        assert Engine(rebuilt).count_solutions("X likes Y") == 3


class TestWriterWithCustomOps:
    def test_emitted_source_uses_operator_notation(self):
        from repro.prolog.writer import program_to_string

        database = Database.from_source(":- op(700, xfx, likes). a likes b.")
        text = program_to_string(database.to_terms(), database.operators)
        assert "a likes b." in text

    def test_default_writer_falls_back_to_canonical(self):
        from repro.prolog.writer import program_to_string

        database = Database.from_source(":- op(700, xfx, likes). a likes b.")
        text = program_to_string(database.to_terms())  # standard table
        assert "likes(a, b)." in text

    def test_roundtrip_with_shared_table(self):
        from repro.prolog.writer import program_to_string

        database = Database.from_source(
            ":- op(700, xfx, likes). a likes b. c likes d."
        )
        text = program_to_string(database.to_terms(), database.operators)
        rebuilt = Database()
        rebuilt.operators = database.operators
        rebuilt.consult(text)
        assert len(rebuilt.clauses(("likes", 2))) == 2

    def test_op_directive_does_not_leak_into_default_table(self):
        from repro.prolog.writer import TermWriter, clause_to_string

        database = Database.from_source(":- op(700, xfx, likes). a likes b.")
        assert database.operators.infix("likes") is not None
        # Every default writer reads the one shared table ...
        assert TermWriter().operators is TermWriter().operators
        # ... and the consulted directive did not reach it.
        assert TermWriter().operators.infix("likes") is None
        assert clause_to_string(database.to_terms()[0]) == "likes(a, b)."
