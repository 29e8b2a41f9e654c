"""JSONL export: serialize telemetry into machine-readable records.

Every record is one flat JSON object with a ``type`` discriminator:

* ``profile`` — run header (file, query, tool version);
* ``event``   — one structural bus event (see :mod:`.events`);
* ``span``    — one pipeline phase (see :mod:`.spans`);
* ``metrics`` — engine counters (:meth:`repro.prolog.metrics.Metrics.to_dict`);
* ``search``  — goal-search internals (:class:`repro.reorder.goal_search.SearchCounters`);
* ``report``  — the reorderer's decisions and warnings;
* ``drift``   — one calibration-drift comparison (see :mod:`.drift`);
* ``stream``  — one streaming per-(predicate, mode) aggregate (see
  :mod:`.streaming.aggregate`);
* ``sample``  — one sampled Byrd box (see :mod:`.streaming.recorder`);
* ``degenerate`` — a run produced no usable signal (e.g. zero calls);
* ``solutions`` — answer count (and optional rendered answers).

Schema version 2 adds the streaming record types and the
``dropped``/``sampled_rate`` header fields (how much of the stream the
bounded ring retained, and at what sampling rate). The schema is
documented in docs/OBSERVABILITY.md; benchmark trajectories
(BENCH_*.json) can be distilled from these streams.
"""

from __future__ import annotations

import json
from typing import IO, Dict, Iterable, Iterator, List, Optional, Union

__all__ = [
    "SCHEMA_VERSION",
    "profile_header",
    "event_records",
    "recorder_records",
    "metrics_record",
    "solutions_record",
    "degenerate_record",
    "report_records",
    "write_jsonl",
]

SCHEMA_VERSION = 2

Record = Dict[str, object]


def profile_header(**fields: object) -> Record:
    """The stream's leading record (file, query, tool version...).

    Callers with bounded collection pass ``dropped`` (events/samples
    evicted before export) and ``sampled_rate`` (fraction of calls the
    recorder sampled, 1.0 for exhaustive instrumentation) so consumers
    can tell a complete stream from a decimated one up front.
    """
    record: Record = {"type": "profile", "schema": SCHEMA_VERSION}
    record.update(fields)
    return record


def event_records(bus, run: Optional[str] = None) -> Iterator[Record]:
    """One record per bus event, plus a trailing truncation marker."""
    for event in bus:
        record = event.to_record()
        if run is not None:
            record["run"] = run
        yield record
    if bus.truncated:
        marker: Record = {
            "type": "event",
            "kind": "truncated",
            "dropped": bus.dropped,
            "limit": bus.limit,
        }
        if run is not None:
            marker["run"] = run
        yield marker


def recorder_records(recorder, run: Optional[str] = None) -> Iterator[Record]:
    """A recorder's ``stream`` aggregates, then its retained ``sample``
    boxes in call order."""
    for record in recorder.aggregates.to_records():
        if run is not None:
            record["run"] = run
        yield record
    for sample in recorder.samples():
        record = sample.to_record()
        if run is not None:
            record["run"] = run
        yield record


def metrics_record(metrics, run: Optional[str] = None) -> Record:
    """Engine counters as one record."""
    record: Record = {"type": "metrics"}
    if run is not None:
        record["run"] = run
    record.update(metrics.to_dict())
    return record


def solutions_record(
    solutions, run: Optional[str] = None, render: bool = False
) -> Record:
    """Answer count (and, optionally, the rendered answers)."""
    record: Record = {"type": "solutions", "count": len(solutions)}
    if run is not None:
        record["run"] = run
    if render:
        record["answers"] = [repr(solution) for solution in solutions]
    return record


def degenerate_record(
    reason: str, run: Optional[str] = None, **fields: object
) -> Record:
    """A structured marker that a run yielded no usable signal.

    Emitted (for example) by ``repro compare`` when a side made zero
    calls — a ratio over it would be meaningless, and downstream
    tooling needs a machine-readable marker, not just the
    human-readable ``ratio: n/a`` line.
    """
    record: Record = {"type": "degenerate", "reason": reason}
    if run is not None:
        record["run"] = run
    record.update(fields)
    return record


def report_records(report) -> List[Record]:
    """The :class:`~repro.reorder.system.ReorderReport` as records:
    one per decision line, one per warning, one summary."""
    payload = report.to_dict()
    records: List[Record] = []
    for decision in payload["decisions"]:
        records.append({"type": "report", "kind": "decision", **decision})
    for warning in payload["warnings"]:
        records.append({"type": "report", "kind": "warning", "message": warning})
    for failure in payload.get("calibration_failures", []):
        records.append(
            {"type": "report", "kind": "calibration_failure", "message": failure}
        )
    records.append(
        {
            "type": "report",
            "kind": "summary",
            "fixed": payload["fixed"],
            "recursive": payload["recursive"],
            "semifixed": payload["semifixed"],
            "tabled": payload.get("tabled", []),
            "backends": payload.get("backends", []),
        }
    )
    return records


def write_jsonl(records: Iterable[Record], target: Union[str, IO[str]]) -> int:
    """Write records as JSONL to a path or file object; returns the
    number of records written. ``"-"`` writes to stdout."""
    import sys

    count = 0
    if isinstance(target, str):
        if target == "-":
            handle: IO[str] = sys.stdout
            close = False
        else:
            handle = open(target, "w")
            close = True
    else:
        handle, close = target, False
    try:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")
            count += 1
    finally:
        if close:
            handle.close()
    return count
