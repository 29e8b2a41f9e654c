"""Tests for the index choices: multi-argument, first-argument, none."""

import pytest

from repro.prolog import Database, Engine
from repro.prolog.reader.parser import parse_term

# Second argument is far more selective than the first.
SOURCE = """
rec(a, k1). rec(a, k2). rec(a, k3). rec(a, k4).
rec(a, k5). rec(a, k6). rec(a, k7). rec(a, k8).
"""


class TestAutoSelection:
    def test_picks_selective_argument(self):
        database = Database(index_argument="multi")
        database.consult(SOURCE)
        picked = database.matching_clauses(parse_term("rec(X, k3)"))
        assert len(picked) == 1

    def test_first_argument_engine_cannot_filter_here(self):
        database = Database(index_argument=1)
        database.consult(SOURCE)
        picked = database.matching_clauses(parse_term("rec(X, k3)"))
        assert len(picked) == 8  # first arg unbound: everything tried

    def test_auto_still_full_scan_when_key_unbound(self):
        # The only bound argument selects every clause.
        database = Database(index_argument="multi")
        database.consult(SOURCE)
        picked = database.matching_clauses(parse_term("rec(a, K)"))
        assert len(picked) == 8

    def test_variable_heads_penalised(self):
        source = "p(X, k1). p(X, k2). p(a, Y). p(b, Y)."
        database = Database(index_argument="multi")
        database.consult(source)
        # Both positions hold variable heads: whichever bucket wins,
        # the variable-headed clauses must be merged back in.
        engine = Engine(database)
        assert engine.count_solutions("p(a, k1)") == 2  # via X-heads and a-head

    def test_answers_identical_across_index_choices(self):
        source = SOURCE + "q(V) :- rec(V, k5).\n"
        reference = None
        for indexing, index_argument in (
            (True, 1), (True, "multi"), (False, "multi"),
        ):
            database = Database(indexing=indexing, index_argument=index_argument)
            database.consult(source)
            answers = sorted(
                s.key() for s in Engine(database).ask("rec(A, B)")
            )
            lookups = sorted(s.key() for s in Engine(database).ask("q(V)"))
            if reference is None:
                reference = (answers, lookups)
            assert (answers, lookups) == reference

    def test_bad_argument_rejected(self):
        for bad in (0, 2, 5, "auto", "best"):
            with pytest.raises(ValueError):
                Database(index_argument=bad)

    def test_unification_counts_drop(self):
        multi = Database(index_argument="multi")
        multi.consult(SOURCE)
        first = Database(index_argument=1)
        first.consult(SOURCE)
        _, multi_metrics = Engine(multi).run("rec(X, k3)")
        _, first_metrics = Engine(first).run("rec(X, k3)")
        assert multi_metrics.unifications < first_metrics.unifications
