"""Byrd boxes that close without failing out.

A box abandoned by a clause cut, by a solution limit or by an aborting
budget never reaches its ``fail`` port: the tracer must not invent one,
and a full-rate recorder must still count the box at its exact cost
(1 + every call charged while the box was active).
"""

import pytest

from repro.errors import BudgetExceededError
from repro.observability.streaming import StreamingRecorder, attach_recorder
from repro.prolog import Engine
from repro.prolog.trace import CollectingTracer
from repro.robustness import Budget

SOURCE = """
q(1). q(2).
p(X) :- q(X).
c(X) :- p(X), !.
r(X) :- p(X), q(X).
"""


def run(engine, query, limit=None, budget_calls=None):
    if budget_calls is None:
        engine.ask(query, limit=limit)
    else:
        with pytest.raises(BudgetExceededError):
            engine.ask(query, budget=Budget(calls=budget_calls))


def traced(query, **run_kwargs):
    """(port, depth, goal text) per tracer line."""
    engine = Engine.from_source(SOURCE)
    engine.recorder = tracer = CollectingTracer()
    run(engine, query, **run_kwargs)
    return [(event.port, event.depth, event.goal_text) for event in tracer.events]


def boxes(query, **run_kwargs):
    """(predicate name, cost, solutions) per box, in call order."""
    engine = Engine.from_source(SOURCE)
    recorder = attach_recorder(engine, StreamingRecorder(sample_every=1))
    run(engine, query, **run_kwargs)
    return [
        (sample.indicator[0], sample.cost, sample.solutions)
        for sample in recorder.samples()
    ]


def test_box_closed_by_clause_cut():
    # The cut in c/1 abandons p/1 and q/1 after their first exit; only
    # c/1 itself fails out.
    assert traced("c(X)") == [
        ("call", 0, "c(X)"),
        ("call", 1, "p(X)"),
        ("call", 2, "q(X)"),
        ("exit", 2, "q(1)"),
        ("exit", 1, "p(1)"),
        ("exit", 0, "c(1)"),
        ("redo", 0, "c(1)"),
        ("fail", 0, "c(X)"),
    ]
    assert boxes("c(X)") == [("c", 3, 1), ("p", 2, 1), ("q", 1, 1)]


def test_box_closed_by_solution_limit():
    # ask(limit=1) closes every open box after the first answer.
    assert traced("r(X)", limit=1) == [
        ("call", 0, "r(X)"),
        ("call", 1, "p(X)"),
        ("call", 2, "q(X)"),
        ("exit", 2, "q(1)"),
        ("exit", 1, "p(1)"),
        ("call", 1, "q(1)"),
        ("exit", 1, "q(1)"),
        ("exit", 0, "r(1)"),
    ]
    assert boxes("r(X)", limit=1) == [
        ("r", 4, 1), ("p", 2, 1), ("q", 1, 1), ("q", 1, 1)
    ]


def test_box_closed_by_budget_abort():
    # The fourth call, q(1), trips the budget before its box opens:
    # r/1 and p/1 close mid-solution with no fail port.
    assert traced("r(X)", budget_calls=3) == [
        ("call", 0, "r(X)"),
        ("call", 1, "p(X)"),
        ("call", 2, "q(X)"),
        ("exit", 2, "q(1)"),
        ("exit", 1, "p(1)"),
    ]
    # r/1's cost includes the charged call that aborted.
    assert boxes("r(X)", budget_calls=3) == [
        ("r", 4, 0), ("p", 2, 1), ("q", 1, 1)
    ]
