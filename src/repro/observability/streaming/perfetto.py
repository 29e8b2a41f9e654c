"""Chrome/Perfetto trace-event export for spans and Byrd boxes.

Renders the repo's two timing sources into the Trace Event JSON format
(``{"traceEvents": [...]}``) that ``chrome://tracing`` and
https://ui.perfetto.dev load directly:

* **pipeline spans** (:class:`~repro.observability.spans.SpanRecorder`)
  — spans carry durations but no start timestamps, so they are laid
  out on a synthetic sequential timeline in recording order: correct
  durations and ordering, no gaps;
* **recorder box samples**
  (:class:`~repro.observability.streaming.recorder.BoxSample`) — each
  box becomes one slice spanning call through final fail on a
  per-depth track. A box's wall time includes its paused windows, and
  under sampling its parents may be missing, so the per-depth tracks
  keep overlapping siblings readable instead of pretending to exact
  nesting.

All timestamps are microseconds (the format's unit), rebased to the
earliest event so traces start at zero.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional

from ..spans import SpanRecorder
from .recorder import BoxSample

__all__ = [
    "trace_events_from_spans",
    "trace_events_from_samples",
    "perfetto_trace",
    "write_trace",
]

#: Process ids keeping the two sources on separate Perfetto tracks.
_PID_PIPELINE = 1
_PID_ENGINE = 2

TraceEvent = Dict[str, object]


def _slice(
    name: str, ts_us: float, dur_us: float, pid: int, tid: int, args: Dict[str, object]
) -> TraceEvent:
    """One complete ("X") trace event."""
    return {
        "name": name,
        "ph": "X",
        "ts": round(ts_us, 3),
        "dur": round(max(dur_us, 0.0), 3),
        "pid": pid,
        "tid": tid,
        "args": args,
    }


def trace_events_from_spans(spans: SpanRecorder) -> List[TraceEvent]:
    """Pipeline spans on a synthetic sequential timeline.

    Spans record duration only, so each is placed right after the
    previous one; skipped spans become zero-width instant markers.
    """
    events: List[TraceEvent] = []
    cursor = 0.0
    for span in spans.to_records():
        duration = float(span.get("seconds", 0.0) or 0.0) * 1e6
        args: Dict[str, object] = {"count": span.get("count", 0)}
        if span.get("skipped"):
            args["skipped"] = True
        events.append(
            _slice(str(span["name"]), cursor, duration, _PID_PIPELINE, 1, args)
        )
        cursor += duration
    return events


def trace_events_from_samples(samples: Iterable[BoxSample]) -> List[TraceEvent]:
    """Sampled boxes as slices, one Perfetto track per call depth.

    A sample's wall time spans call through final fail including
    paused windows, and its parents may be unsampled, so per-depth
    tracks keep overlapping siblings readable instead of pretending to
    exact nesting.
    """
    items = list(samples)
    if not items:
        return []
    base = min(sample.ts for sample in items)
    return [
        _slice(
            f"{sample.indicator[0]}/{sample.indicator[1]}",
            (sample.ts - base) * 1e6,
            sample.seconds * 1e6,
            _PID_ENGINE,
            sample.depth + 1,
            {
                "mode": sample.mode,
                "cost": sample.cost,
                "solutions": sample.solutions,
            },
        )
        for sample in sorted(items, key=lambda sample: sample.ts)
    ]


def perfetto_trace(
    spans: Optional[SpanRecorder] = None,
    samples: Optional[Iterable[BoxSample]] = None,
) -> Dict[str, object]:
    """A complete Trace Event JSON document from any source mix."""
    events: List[TraceEvent] = []
    if spans is not None:
        events.extend(trace_events_from_spans(spans))
    if samples is not None:
        events.extend(trace_events_from_samples(samples))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_trace(
    path: str,
    spans: Optional[SpanRecorder] = None,
    samples: Optional[Iterable[BoxSample]] = None,
) -> int:
    """Write a trace file loadable by Perfetto; returns the event count."""
    trace = perfetto_trace(spans=spans, samples=samples)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle)
    return len(trace["traceEvents"])
