"""The classic four-port execution tracer (call / exit / redo / fail).

Byrd's box model: every goal is entered (``call``), may succeed
(``exit``), may be re-entered on backtracking (``redo``), and finally
fails out (``fail``). :class:`CollectingTracer` implements the box
hooks of the engine's one per-call instrumentation slot
(``engine.recorder = CollectingTracer()``), rendering goals *with their
bindings at event time* — so an ``exit`` line shows the answer the
goal just produced. A box abandoned by cut, ``once``, a solution limit
or an exception closes without a ``fail`` line.

Tracing is how the reproduction was debugged, and it is part of the
substrate a Prolog user expects; it also doubles as an execution-order
oracle in the tests (the reordered program's trace shows the new goal
order directly).

Retention is a ring buffer (most recent ``limit`` events kept,
eviction counted) rather than the historical first-``limit``-then-stop
policy: when something goes wrong deep into a long run, the *end* of
the trace is the part worth keeping. Truncation stays explicit either
way — ``truncated``/``dropped`` and the :meth:`format` overflow footer
make a cut trace impossible to mistake for a complete one.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..observability.streaming.ring import RingBuffer
from .terms import Term
from .writer import term_to_string

__all__ = ["TraceEvent", "CollectingTracer"]

PORTS = ("call", "exit", "redo", "fail")


class TraceEvent:
    """One port crossing, with the goal rendered at event time."""

    __slots__ = ("port", "depth", "goal_text")

    def __init__(self, port: str, depth: int, goal_text: str):
        self.port = port
        self.depth = depth
        self.goal_text = goal_text

    def format(self) -> str:
        """One indented trace line."""
        return f"{'  ' * self.depth}{self.port:<5} {self.goal_text}"

    def __repr__(self) -> str:
        return f"TraceEvent({self.port!r}, {self.depth!r}, {self.goal_text!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TraceEvent)
            and self.port == other.port
            and self.depth == other.depth
            and self.goal_text == other.goal_text
        )

    def __hash__(self) -> int:
        return hash((self.port, self.depth, self.goal_text))


class CollectingTracer:
    """Records every port crossing; keeps the most recent ``limit``.

    Backed by
    :class:`~repro.observability.streaming.ring.RingBuffer`, so a
    tracer left attached for hours still holds the latest window
    instead of a stale prefix. Truncation is explicit:
    ``truncated``/``dropped`` expose whether and how much of the trace
    is missing, and :meth:`format` appends an overflow line — so a
    trace-based test oracle can never mistake a truncated trace for a
    complete one.
    """

    def __init__(
        self,
        limit: int = 10_000,
        only_predicates: Optional[set] = None,
    ):
        self.limit = limit
        #: Optional filter: only record goals of these predicate names.
        self.only_predicates = only_predicates
        self._ring: RingBuffer = RingBuffer(limit)

    # -- the recorder's box hooks (driven by Engine._record_boxed) -------

    #: No predicate is ever past a sampling phase: every call reaches
    #: :meth:`admit_cold`, which applies the predicate filter.
    hot: frozenset = frozenset()
    sample_every = 1

    def admit_cold(self, indicator: Tuple[str, int], metrics) -> bool:
        """Box every call, or only those the predicate filter names."""
        return self.only_predicates is None or indicator[0] in self.only_predicates

    def open_box(self, indicator, mode, depth, metrics, goal: Term):
        """The ``call`` port; the box is just (depth, goal)."""
        box = (depth, goal)
        self._port("call", box)
        return box

    def pause_box(self, box) -> None:
        """The ``exit`` port."""
        self._port("exit", box)

    def resume_box(self, box) -> None:
        """The ``redo`` port."""
        self._port("redo", box)

    def close_box(self, box, failed: bool) -> None:
        """The ``fail`` port, when the goal failed out (not abandoned)."""
        if failed:
            self._port("fail", box)

    def _port(self, port: str, box) -> None:
        depth, goal = box
        self._ring.append(TraceEvent(port, depth, term_to_string(goal)))

    @property
    def events(self) -> List[TraceEvent]:
        """The retained events, oldest first."""
        return self._ring.to_list()

    @property
    def dropped(self) -> int:
        """Events that matched the filter but were evicted past ``limit``."""
        return self._ring.dropped

    @property
    def truncated(self) -> bool:
        """Did any event overflow the limit?"""
        return self._ring.truncated

    def format(self) -> str:
        """The whole trace as indented lines (overflow surfaced)."""
        text = "\n".join(event.format() for event in self._ring)
        if self.truncated:
            overflow = f"... {self.dropped} more event(s) dropped (limit {self.limit})"
            text = f"{text}\n{overflow}" if text else overflow
        return text

    def ports(self) -> List[str]:
        """Just the port sequence (handy for assertions)."""
        return [event.port for event in self._ring]

    def lines(self, port: Optional[str] = None) -> List[str]:
        """Goal texts of all events, optionally filtered by port."""
        return [
            event.goal_text
            for event in self._ring
            if port is None or event.port == port
        ]
