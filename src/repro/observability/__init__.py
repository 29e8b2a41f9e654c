"""Observability: the telemetry substrate of the reproduction.

All optional and zero-overhead when unused:

* :mod:`.streaming` — the per-call channel: ``engine.recorder`` holds a
  :class:`~.streaming.recorder.StreamingRecorder` (sampled for
  always-on use, ``sample_every=1`` for exhaustive profiling) whose
  Byrd boxes feed per-(predicate, mode) aggregates, drift
  reports and Perfetto export;
* :mod:`.events` — a typed bus for the low-rate structural events
  (index lookups, tables, strata, server requests);
* :mod:`.spans`  — accumulating wall-clock timers over the ten
  reordering-pipeline phases;
* :mod:`.drift`  — predicted-vs-observed statistics per (predicate,
  mode), read from the recorder's aggregates, flagging where the
  Markov model needs calibration;
* :mod:`.export` — JSONL serialization of all of the above.

``repro profile FILE QUERY --json out.jsonl`` drives everything from
the command line; docs/OBSERVABILITY.md documents the record schema.

Note: :mod:`.drift` is intentionally not imported here — it depends on
the engine/model layers, which themselves import :mod:`.events`; import
it as ``from repro.observability.drift import DriftReporter``.
"""

from .events import (
    Event,
    EventBus,
    IndexEvent,
    TableEvent,
    attach,
    detach,
)
from .export import (
    SCHEMA_VERSION,
    degenerate_record,
    event_records,
    metrics_record,
    profile_header,
    recorder_records,
    report_records,
    solutions_record,
    write_jsonl,
)
from .spans import PIPELINE_PHASES, Span, SpanRecorder

__all__ = [
    "Event",
    "EventBus",
    "IndexEvent",
    "TableEvent",
    "attach",
    "detach",
    "PIPELINE_PHASES",
    "Span",
    "SpanRecorder",
    "SCHEMA_VERSION",
    "degenerate_record",
    "profile_header",
    "event_records",
    "recorder_records",
    "metrics_record",
    "solutions_record",
    "report_records",
    "write_jsonl",
]
