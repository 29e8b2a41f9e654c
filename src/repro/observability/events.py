"""Typed structural events and the event bus.

The paper's whole methodology is counting — "the number of predicate
calls or unifications; CPU time is too coarse a measure" (§I-B) — but
scalar counters cannot say whether the clause index actually narrowed
anything, what the tabling subsystem did, or where a budget ran out.
The event bus records a structured stream of those low-rate facts.
Per-call data (Byrd boxes, cost, solutions, wall time) does not come
through here: it has one channel, ``engine.recorder`` (see
:mod:`repro.observability.streaming.recorder`).

Design constraints:

* **zero overhead when disabled** — the engine and database hold
  ``events = None`` by default and guard every emission site with a
  single ``is not None`` test, so the uninstrumented hot path never
  constructs an event;
* **typed events** — each record is a small dataclass with a ``kind``
  tag and a ``to_record()`` JSONL serializer, so consumers (the drift
  reporter, the CLI exporters, tests) never parse strings;
* **bounded memory** — the bus keeps at most ``limit`` events and
  counts the overflow instead of growing without bound.

This module deliberately imports nothing from the engine layer so the
engine can import it without cycles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Event",
    "IndexEvent",
    "TableEvent",
    "StratumEvent",
    "CacheEvent",
    "BudgetEvent",
    "DegradedEvent",
    "FaultEvent",
    "RequestEvent",
    "EventBus",
    "attach",
    "detach",
]

Indicator = Tuple[str, int]


def _indicator_text(indicator: Indicator) -> str:
    return f"{indicator[0]}/{indicator[1]}"


@dataclass
class Event:
    """Common shape of every bus event: a kind tag plus a timestamp
    (``time.perf_counter()`` at construction, for ordering/latency)."""

    kind = "event"

    ts: float = field(default_factory=time.perf_counter, init=False)

    def to_record(self) -> Dict[str, object]:
        """The event as one flat JSONL-ready dict."""
        record: Dict[str, object] = {"type": "event", "kind": self.kind}
        for name, value in self.__dict__.items():
            if name == "ts":
                continue
            if name == "indicator":
                record["predicate"] = (
                    _indicator_text(value) if value is not None else None
                )
            else:
                record[name] = value
        record["ts"] = self.ts
        return record


@dataclass
class IndexEvent(Event):
    """One clause-index consultation by ``Database.matching_clauses``.

    ``hit`` means a bound key selected a bucket; ``candidates`` is how
    many clauses survived out of ``total`` stored ones (a hit that does
    not narrow still reports ``candidates == total``). Under
    multi-argument indexing a hit additionally reports which argument
    ``position`` (0-based) won the selectivity contest and the achieved
    ``selectivity`` (``candidates / total``, lower is better); both stay
    ``None`` on misses and on the fixed single-position index modes.
    """

    kind = "index"

    indicator: Indicator
    hit: bool
    candidates: int
    total: int
    position: Optional[int] = None
    selectivity: Optional[float] = None


@dataclass
class TableEvent(Event):
    """One tabling-subsystem action on a call-variant table.

    ``action`` is one of ``hit`` (call found an existing table),
    ``miss`` (a new table was created), ``answer_added`` (the producer
    stored a new answer), or ``complete`` (the table reached its
    fixpoint). ``answers`` is the table's answer count at that moment.
    """

    kind = "table"

    action: str
    indicator: Indicator
    answers: int


@dataclass
class StratumEvent(Event):
    """One stratum materialized by the bottom-up (semi-naive) backend.

    Emitted once per recursion component the dispatcher evaluates
    bottom-up (:mod:`repro.prolog.bottomup`): ``predicates`` names the
    component as ``name/arity`` strings, ``backend`` is the evaluator
    that ran it (currently always ``bottomup`` — strata left to SLD
    resolution emit nothing), ``rounds`` the number of semi-naive
    iterations to fixpoint, ``delta_sizes`` the new-fact count per
    round, and ``facts`` the materialized relation size summed over the
    component's predicates.
    """

    kind = "stratum"

    predicates: Tuple[str, ...]
    backend: str
    rounds: int
    delta_sizes: List[int]
    facts: int

    def to_record(self) -> Dict[str, object]:
        """The event as one flat JSONL-ready dict (lists stay JSON-native)."""
        record = super().to_record()
        record["predicates"] = list(self.predicates)
        record["delta_sizes"] = list(self.delta_sizes)
        return record


@dataclass
class CacheEvent(Event):
    """One AnalysisContext cache consultation by the reorder pipeline.

    ``stage`` names the cached artefact (an analysis stage such as
    ``"fixity"``, a per-predicate ``"version build"``, or a
    ``"calibration"`` measurement); ``hit`` says whether it was served
    from cache or recomputed. Whole-program stages carry no
    ``indicator``.
    """

    kind = "cache"

    stage: str
    hit: bool
    indicator: Optional[Indicator] = None


@dataclass
class BudgetEvent(Event):
    """A resource budget ran out (see :class:`repro.robustness.Budget`).

    ``what`` names the exhausted bound (``deadline``, ``calls``,
    ``steps``, ``cancelled``); ``site`` is the charge site that noticed
    (``engine.call``, ``engine.step``, ``tabling.fixpoint``,
    ``goal_search.astar``, ...).
    """

    kind = "budget"

    what: str
    site: str


@dataclass
class DegradedEvent(Event):
    """The reorder pipeline degraded one predicate to source order.

    Emitted by the per-predicate failure isolation: ``phase`` is where
    the build failed (currently always ``build``), ``reason`` the
    one-line exception description. All other predicates are unaffected.
    """

    kind = "degraded"

    indicator: Indicator
    phase: str
    reason: str


@dataclass
class FaultEvent(Event):
    """An injected fault fired (:mod:`repro.robustness.faults`).

    ``site`` is the fault site, ``action`` the fault kind
    (``raise`` / ``hang`` / ``exhaust``). Only ever emitted while a
    fault plan is installed — never in production runs.
    """

    kind = "fault"

    site: str
    action: str


@dataclass
class RequestEvent(Event):
    """One lifecycle transition of a server request (``repro serve``).

    ``action`` is one of ``admitted`` (an execution slot was granted,
    possibly after queueing), ``started`` (engine work began),
    ``completed`` (a response was written; ``status`` says which kind),
    ``rejected`` (admission control shed it — queue full or draining),
    ``cancelled`` (a deadline watchdog or drain cancelled it
    in-flight), or ``degraded`` (the process backend gave out on this
    request and it was answered by the threaded fallback).
    ``generation`` is the snapshot generation the request
    was pinned to at admission (-1 before pinning); ``queue_depth`` and
    ``inflight`` are the admission controller's counters at emission
    time, so a JSONL stream of these events reconstructs the server's
    load curve. ``seconds`` is admission-to-response latency, recorded
    on terminal actions only.
    """

    kind = "request"

    action: str
    request_id: str
    op: str
    generation: int
    queue_depth: int
    inflight: int
    status: Optional[str] = None
    seconds: Optional[float] = None


class EventBus:
    """Collects typed events up to ``limit``; counts overflow after."""

    __slots__ = ("events", "limit", "dropped")

    def __init__(self, limit: int = 1_000_000):
        self.events: List[Event] = []
        self.limit = limit
        self.dropped = 0

    def emit(self, event: Event) -> None:
        """Record one event (or count it as dropped past the limit)."""
        if len(self.events) < self.limit:
            self.events.append(event)
        else:
            self.dropped += 1

    @property
    def truncated(self) -> bool:
        """Did any event overflow the limit?"""
        return self.dropped > 0

    def by_kind(self, kind: str) -> List[Event]:
        """All events of one kind, in emission order."""
        return [event for event in self.events if event.kind == kind]

    def counts(self) -> Dict[str, int]:
        """Event count per kind (tables additionally per action)."""
        tally: Dict[str, int] = {}
        for event in self.events:
            tally[event.kind] = tally.get(event.kind, 0) + 1
            if isinstance(event, TableEvent):
                key = f"table.{event.action}"
                tally[key] = tally.get(key, 0) + 1
        return tally

    def clear(self) -> None:
        """Drop all collected events and the overflow count."""
        self.events.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)


def attach(engine, bus: Optional[EventBus] = None) -> EventBus:
    """Attach a bus to an engine *and* its database; returns the bus.

    Duck-typed on purpose (no engine import): anything with ``events``
    and ``database.events`` attributes works.
    """
    bus = bus if bus is not None else EventBus()
    engine.events = bus
    engine.database.events = bus
    return bus


def detach(engine) -> Optional[EventBus]:
    """Detach and return the engine's bus (restores the fast path)."""
    bus = engine.events
    engine.events = None
    engine.database.events = None
    return bus
