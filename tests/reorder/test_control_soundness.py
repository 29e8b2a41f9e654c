"""Regression fixtures: reordering around if-then-else (Table I).

An if-then-else condition commits to its first solution, like
``once/1``, so a goal that binds the condition's variables must stay
ahead of it. Each fixture asserts that the reordered program's answer
multiset equals the source's in every calling mode.
"""

import pytest

from repro.analysis import all_input_modes
from repro.experiments.harness import mode_queries
from repro.prolog import Database, Engine
from repro.reorder.system import Reorderer

FACTS = "t(a, c). t(b, d). t(d, c). s(a). s(b). s(d). s(e).\n"
CONSTANTS = ["a", "b", "c", "d", "e"]

FIXTURES = {
    # A semifixed \== in the else branch.
    "semifixed_else": FACTS + "r(V) :- s(V), (t(V, c) -> true ; V \\== d).",
    # No semifixed builtin at all: the condition alone constrains.
    "condition_only": FACTS + "r(V) :- s(V), (t(V, c) -> true ; true).",
}


def answers(engine, query):
    return sorted(solution.key() for solution in engine.ask(query))


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_reordered_answers_match_source_in_every_mode(name):
    source = FIXTURES[name]
    original = Engine(Database.from_source(source))
    reordered = Reorderer(Database.from_source(source)).reorder().engine()
    queries = [
        query
        for mode in all_input_modes(1)
        for query in mode_queries("r", mode, CONSTANTS)
    ]
    assert len(queries) == 1 + len(CONSTANTS)
    for query in queries:
        assert answers(reordered, query) == answers(original, query), query
