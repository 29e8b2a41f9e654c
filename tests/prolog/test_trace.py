"""Tests for the four-port tracer."""

import pytest

from repro.prolog import Database, Engine
from repro.prolog.trace import CollectingTracer
from repro.reorder.system import ReorderOptions, Reorderer

SOURCE = """
p(1). p(2).
q(2).
r(X) :- p(X), q(X).
"""


def traced_engine(source=SOURCE, **tracer_kwargs):
    engine = Engine.from_source(source)
    tracer = CollectingTracer(**tracer_kwargs)
    engine.recorder = tracer
    return engine, tracer


class TestPorts:
    def test_simple_success(self):
        engine, tracer = traced_engine("f(a).")
        engine.ask("f(a)")
        assert tracer.ports() == ["call", "exit", "redo", "fail"]

    def test_simple_failure(self):
        engine, tracer = traced_engine("f(a).")
        engine.ask("f(b)")
        assert tracer.ports() == ["call", "fail"]

    def test_conjunction_boxes_nest(self):
        engine, tracer = traced_engine()
        engine.ask("r(2)")
        r_events = [e for e in tracer.events if e.goal_text.startswith("r(")]
        assert [e.port for e in r_events] == ["call", "exit", "redo", "fail"]

    def test_exit_shows_bindings(self):
        engine, tracer = traced_engine()
        engine.ask("p(X)", limit=1)
        exits = tracer.lines("exit")
        assert "p(1)" in exits

    def test_redo_on_backtracking(self):
        engine, tracer = traced_engine()
        engine.ask("p(X)")  # both answers forced
        p_ports = [e.port for e in tracer.events if "p(" in e.goal_text]
        assert p_ports == ["call", "exit", "redo", "exit", "redo", "fail"]

    def test_depth_increases_for_subgoals(self):
        engine, tracer = traced_engine()
        engine.ask("r(X)", limit=1)
        r_depth = next(e.depth for e in tracer.events if "r(" in e.goal_text)
        p_depth = next(e.depth for e in tracer.events if "p(" in e.goal_text)
        assert p_depth > r_depth

    def test_builtins_traced(self):
        engine, tracer = traced_engine("calc(X) :- X is 1 + 2.")
        engine.ask("calc(V)")
        assert any("is" in text for text in tracer.lines("call"))


class TestCollectingTracer:
    def test_limit(self):
        engine, tracer = traced_engine(limit=3)
        engine.ask("r(X)")
        assert len(tracer.events) == 3

    def test_predicate_filter(self):
        engine, tracer = traced_engine(only_predicates={"q"})
        engine.ask("r(X)")
        assert tracer.events
        assert all(e.goal_text.startswith("q(") for e in tracer.events)

    def test_format_indents(self):
        engine, tracer = traced_engine()
        engine.ask("r(2)")
        text = tracer.format()
        assert "call  r(2)" in text
        assert "  call  p(2)" in text

    def test_not_truncated_below_limit(self):
        engine, tracer = traced_engine()
        engine.ask("r(X)")
        assert not tracer.truncated and tracer.dropped == 0
        assert "dropped" not in tracer.format()

    def test_truncation_counts_overflow(self):
        engine, tracer = traced_engine(limit=3)
        engine.ask("r(X)")
        assert tracer.truncated
        assert tracer.dropped > 0
        assert len(tracer.events) == 3

    def test_format_surfaces_overflow(self):
        engine, tracer = traced_engine(limit=3)
        engine.ask("r(X)")
        text = tracer.format()
        assert f"{tracer.dropped} more event(s) dropped" in text
        assert "(limit 3)" in text

    def test_filtered_events_not_counted_as_dropped(self):
        # Events rejected by the predicate filter are not "dropped":
        # only events that *matched* but overflowed the limit count.
        engine, tracer = traced_engine(only_predicates={"q"}, limit=100)
        engine.ask("r(X)")
        assert tracer.dropped == 0 and not tracer.truncated

    def test_filter_applies_before_limit(self):
        engine, tracer = traced_engine(only_predicates={"q"}, limit=1)
        engine.ask("r(X)")
        assert len(tracer.events) == 1
        assert tracer.events[0].goal_text.startswith("q(")
        assert tracer.dropped > 0

    def test_format_empty_truncated_trace(self):
        engine, tracer = traced_engine(limit=0)
        engine.ask("r(X)")
        assert tracer.events == []
        assert tracer.format().startswith("...")


class TestTraceAsOrderOracle:
    def test_reordered_program_traces_new_order(self):
        source = """
        wide(1). wide(2). wide(3). wide(4).
        narrow(3).
        both(X) :- wide(X), narrow(X).
        """
        program = Reorderer(
            Database.from_source(source), ReorderOptions(specialize=False)
        ).reorder()
        engine = program.engine()
        tracer = CollectingTracer(only_predicates={"wide", "narrow"})
        engine.recorder = tracer
        engine.ask("both(X)", limit=1)
        calls = tracer.lines("call")
        assert calls[0].startswith("narrow")  # the reordered first goal
