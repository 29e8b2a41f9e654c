"""Tests for the typed structural event bus and its emitters, and for
the per-call facts the engine reports through its recorder slot."""

import json

from repro.observability import EventBus, IndexEvent, attach, detach
from repro.observability.streaming import StreamingRecorder, attach_recorder
from repro.prolog import Database, Engine
from repro.prolog.trace import CollectingTracer

SOURCE = """
p(1). p(2).
q(2).
r(X) :- p(X), q(X).
"""


def instrumented(source=SOURCE, **engine_kwargs):
    engine = Engine.from_source(source, **engine_kwargs)
    bus = attach(engine)
    return engine, bus


def recorded(source=SOURCE, query="r(X)"):
    """The box samples of one query under a full-rate recorder."""
    engine = Engine.from_source(source)
    recorder = attach_recorder(engine, StreamingRecorder(sample_every=1))
    engine.ask(query)
    return recorder


class TestPortEvents:
    """Byrd-box ports now reach consumers through the recorder slot."""

    def test_known_query_port_sequence(self):
        engine = Engine.from_source("f(a).")
        engine.recorder = tracer = CollectingTracer()
        engine.ask("f(a)")
        assert tracer.ports() == ["call", "exit", "redo", "fail"]

    def test_call_event_fields(self):
        call = recorded().samples()[0]
        assert call.indicator == ("r", 1)
        assert call.depth == 0
        assert call.mode == "(-)"

    def test_mode_rendered_per_argument(self):
        call = recorded("f(a, b).", "f(a, Y)").samples()[0]
        assert call.mode == "(+, -)"

    def test_events_ordered_and_nested(self):
        samples = recorded(query="r(2)").samples()
        # r's box opens first and spans every other box.
        r_box = samples[0]
        assert r_box.indicator == ("r", 1)
        for box in samples[1:]:
            assert r_box.ts <= box.ts
            assert box.ts + box.seconds <= r_box.ts + r_box.seconds
        # p is called (depth 1) inside r's box.
        p_box = next(box for box in samples if box.indicator == ("p", 1))
        assert p_box.depth == 1

    def test_timestamps_monotone(self):
        engine, bus = instrumented()
        engine.ask("r(X)")
        stamps = [e.ts for e in bus]
        assert stamps == sorted(stamps)


class TestOtherEvents:
    def test_choicepoint_records_alternatives(self):
        # Both p/1 clauses are entered; the second is one backtrack.
        _, metrics = Engine.from_source(SOURCE).run("p(X)")
        assert metrics.clause_entries == 2
        assert metrics.backtracks == 1

    def test_unify_success_and_failure(self):
        # Indexing off so the failing head is actually attempted.
        engine = Engine(Database.from_source(SOURCE, indexing=False))
        _, metrics = engine.run("q(1)")  # q(2) stored: one failing attempt
        assert metrics.unifications == 1
        assert metrics.clause_entries == 0

    def test_index_hit_narrows(self):
        engine, bus = instrumented()
        engine.ask("p(1)")
        index = [e for e in bus.by_kind("index") if e.indicator == ("p", 1)]
        assert index and index[0].hit
        assert index[0].candidates == 1 and index[0].total == 2

    def test_index_miss_on_unbound_argument(self):
        engine, bus = instrumented()
        engine.ask("p(X)")
        index = [e for e in bus.by_kind("index") if e.indicator == ("p", 1)]
        assert index and not index[0].hit
        assert index[0].candidates == index[0].total == 2

    def test_wall_time_per_box(self):
        aggregates = recorded().aggregates
        assert all(box.wall.min >= 0.0 for _key, box in aggregates.items())
        assert aggregates.get(("r", 1), "(-)").wall.total > 0.0


class TestDisabledFastPath:
    def test_no_bus_records_nothing(self):
        engine = Engine.from_source(SOURCE)
        assert engine.events is None and engine.database.events is None
        engine.ask("r(X)")
        # Attaching afterwards shows an empty bus: nothing was buffered.
        bus = attach(engine)
        assert len(bus) == 0

    def test_call_counts_unchanged_by_instrumentation(self):
        plain = Engine.from_source(SOURCE)
        _, plain_metrics = plain.run("r(X)")
        engine, bus = instrumented()
        attach_recorder(engine, StreamingRecorder(sample_every=1))
        _, instrumented_metrics = engine.run("r(X)")
        assert plain_metrics.calls == instrumented_metrics.calls
        assert plain_metrics.unifications == instrumented_metrics.unifications
        assert plain_metrics.backtracks == instrumented_metrics.backtracks
        assert len(bus) > 0

    def test_detach_restores_fast_path(self):
        engine, bus = instrumented()
        engine.ask("r(X)")
        recorded = len(bus)
        assert detach(engine) is bus
        assert engine.events is None and engine.database.events is None
        engine.ask("r(X)")
        assert len(bus) == recorded


class TestBus:
    def test_limit_counts_drops(self):
        engine = Engine.from_source(SOURCE)
        bus = attach(engine, EventBus(limit=3))
        engine.ask("r(X)")  # four index lookups
        assert len(bus) == 3
        assert bus.truncated and bus.dropped > 0

    def test_counts_by_kind(self):
        engine, bus = instrumented()
        engine.ask("r(X)")
        counts = bus.counts()
        assert counts == {"index": len(bus.by_kind("index"))}

    def test_clear(self):
        engine, bus = instrumented()
        engine.ask("r(X)")
        bus.clear()
        assert len(bus) == 0 and not bus.truncated


class TestSerialization:
    def test_event_records_round_trip_json(self):
        engine, bus = instrumented()
        engine.ask("r(X)")
        for event in bus:
            record = event.to_record()
            decoded = json.loads(json.dumps(record))
            assert decoded["type"] == "event"
            assert decoded["kind"] == event.kind
            assert "/" in decoded["predicate"]

    def test_index_record_fields(self):
        event = IndexEvent(("aunt", 2), True, 1, 4, position=1, selectivity=0.25)
        record = event.to_record()
        assert record["kind"] == "index"
        assert record["predicate"] == "aunt/2"
        assert record["hit"] is True
        assert (record["candidates"], record["total"]) == (1, 4)
        assert (record["position"], record["selectivity"]) == (1, 0.25)
