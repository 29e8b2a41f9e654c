"""Tests for the Chrome/Perfetto trace export: spans and recorder box
samples rendered as Trace Event JSON."""

import json

from repro.observability import SpanRecorder
from repro.observability.streaming import StreamingRecorder, attach_recorder
from repro.observability.streaming.perfetto import (
    perfetto_trace,
    trace_events_from_samples,
    trace_events_from_spans,
    write_trace,
)
from repro.prolog import Engine

SOURCE = "q. r. p :- q, r."


def traced_engine():
    engine = Engine.from_source(SOURCE)
    recorder = attach_recorder(engine, StreamingRecorder())
    engine.ask("p")
    return engine, recorder


class TestSpanEvents:
    def test_sequential_timeline_with_durations(self):
        spans = SpanRecorder()
        with spans.span("fixity"):
            pass
        with spans.span("modes"):
            pass
        events = trace_events_from_spans(spans)
        assert [event["name"] for event in events] == ["fixity", "modes"]
        assert events[0]["ts"] == 0.0
        # The second span starts where the first ended: no gaps.
        assert events[1]["ts"] == events[0]["dur"]
        assert all(event["ph"] == "X" for event in events)

    def test_skipped_spans_are_zero_width_markers(self):
        spans = SpanRecorder()
        spans.mark_skipped("domains", reason="cached")
        events = trace_events_from_spans(spans)
        assert events[0]["dur"] == 0.0
        assert events[0]["args"]["skipped"] is True


class TestSampleEvents:
    def test_samples_become_depth_tracked_slices(self):
        _, recorder = traced_engine()
        events = trace_events_from_samples(recorder.samples())
        assert {event["name"] for event in events} == {"p/0", "q/0", "r/0"}
        by_name = {event["name"]: event for event in events}
        # p at depth 0 → track 1; its subgoals one track deeper.
        assert by_name["p/0"]["tid"] == 1
        assert by_name["q/0"]["tid"] == by_name["p/0"]["tid"] + 1
        assert by_name["p/0"]["args"]["cost"] == 3
        assert min(event["ts"] for event in events) == 0.0

    def test_no_samples_no_events(self):
        assert trace_events_from_samples([]) == []


class TestTraceDocument:
    def test_mixed_sources_in_one_document(self):
        _, recorder = traced_engine()
        spans = SpanRecorder()
        with spans.span("reorder"):
            pass
        trace = perfetto_trace(spans=spans, samples=recorder.samples())
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        names = [event["name"] for event in trace["traceEvents"]]
        assert "reorder" in names and "p/0" in names

    def test_write_trace_parses_as_json(self, tmp_path):
        _, recorder = traced_engine()
        target = tmp_path / "trace.json"
        count = write_trace(str(target), samples=recorder.samples())
        assert count == 3
        with open(target) as handle:
            document = json.load(handle)
        assert document["traceEvents"]
        assert len(document["traceEvents"]) == count
        for event in document["traceEvents"]:
            assert event["ph"] == "X"
            assert isinstance(event["ts"], float) or event["ts"] == 0
