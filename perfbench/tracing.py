"""Run-time span tracing of the repro layers, installed from outside.

Nothing under ``src/`` knows about this module. :func:`install` wraps
the public entry points of each layer module in place (every module
that imported a wrapped function by name gets the wrapper too), and
:meth:`Tracer.uninstall` puts the originals back, so the untraced
passes run the unmodified code.

Synchronous spans keep a per-thread stack: a span's *self* time is its
duration minus the time its child spans cover, so the self times of
all spans plus the root's self time add up to the root's wall time.
Coroutine entry points (admission wait, executor dispatch) interleave
on the event loop, so they are recorded as separate asynchronous spans
that never act as parents. Spans of one serve request carry the
request id the protocol decoder saw.

Aggregates are kept per thread and merged at the end; individual spans
are kept in memory up to a cap and written once as Chrome trace-event
JSON (``ui.perfetto.dev`` opens it).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

#: Request id of the serve request the current task is handling.
REQUEST_ID: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_request_id", default=None
)

_PERF = time.perf_counter

#: Individual spans kept per span name (aggregates keep them all), so
#: hot entry points cannot blow up the trace file.
EVENTS_PER_SPAN = 2_000


class _ThreadState:
    __slots__ = ("stack", "agg", "counts", "tid", "events")

    def __init__(self, tid: int):
        self.stack: List[List[float]] = []
        #: span name -> [calls, total seconds, self seconds]
        self.agg: Dict[str, List[float]] = {}
        #: counter name -> value
        self.counts: Dict[str, float] = {}
        self.tid = tid
        self.events: List[tuple] = []


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.epoch = _PERF()
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._events_kept: Dict[str, int] = {}
        self._peaks: Dict[str, float] = {}
        self.dropped_events = 0
        #: async span name -> list of (start, seconds, request id)
        self.async_spans: Dict[str, List[tuple]] = {}
        #: objects a hook wants to read once at the end (e.g. engines).
        self.seen: Dict[int, object] = {}
        self._restore: List[Callable[[], None]] = []

    # -- per-thread state ---------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self._states) + 1)
                self._states.append(state)
            self._local.state = state
        return state

    def count(self, name: str, value: float = 1) -> None:
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        """Keep the largest ``value`` seen under ``name``."""
        with self._lock:
            self._peaks[name] = max(self._peaks.get(name, value), value)

    def peaks(self) -> Dict[str, float]:
        return dict(self._peaks)

    def _keep_event(self, name: str) -> bool:
        # Approximate under threads (a benign race on a counter).
        kept = self._events_kept.get(name, 0)
        if kept >= EVENTS_PER_SPAN:
            self.dropped_events += 1
            return False
        self._events_kept[name] = kept + 1
        return True

    # -- wrappers -------------------------------------------------------------

    def span(self, fn: Callable, name: str, before=None, after=None) -> Callable:
        """A wrapper timing ``fn`` as span ``name``.

        ``before(args)`` runs first and its result reaches
        ``after(tracer, token, args, result)``; both run inside the span
        so their cost is charged to the layer, not hidden elsewhere.
        """
        if inspect.iscoroutinefunction(fn):
            return self._async_span(fn, name, before, after)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            frame = [0.0]
            stack = state.stack
            stack.append(frame)
            start = _PERF()
            try:
                token = before(args) if before is not None else None
                result = fn(*args, **kwargs)
                if after is not None:
                    after(tracer, token, args, result)
                return result
            finally:
                seconds = _PERF() - start
                stack.pop()
                if stack:
                    stack[-1][0] += seconds
                record = state.agg.get(name)
                if record is None:
                    record = state.agg[name] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += seconds
                record[2] += seconds - frame[0]
                if tracer._keep_event(name):
                    state.events.append((name, start, seconds, REQUEST_ID.get()))

        return wrapper

    def _async_span(self, fn, name, before, after):
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            start = _PERF()
            try:
                token = before(args) if before is not None else None
                result = await fn(*args, **kwargs)
                if after is not None:
                    after(tracer, token, args, result)
                return result
            finally:
                seconds = _PERF() - start
                with tracer._lock:
                    tracer.async_spans.setdefault(name, []).append(
                        (start, seconds, REQUEST_ID.get())
                    )

        return wrapper

    def counting(self, fn: Callable, after) -> Callable:
        """A wrapper that only runs ``after(tracer, args, result)`` —
        for entry points too hot to time per call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(tracer, args, result)
            return result

        return wrapper

    # -- patching -------------------------------------------------------------

    def patch_function(self, module_name: str, attr: str, wrapper_of) -> None:
        """Replace ``module.attr`` everywhere it was imported by name."""
        module = sys.modules[module_name]
        original = getattr(module, attr)
        wrapped = wrapper_of(original)
        for other in list(sys.modules.values()):
            namespace = getattr(other, "__dict__", None)
            if namespace is None:
                continue
            if namespace.get(attr) is original:
                setattr(other, attr, wrapped)
                self._restore.append(
                    functools.partial(setattr, other, attr, original)
                )

    def patch_method(self, cls: type, attr: str, wrapper_of) -> None:
        """Replace a method (plain, class- or static-) on ``cls``."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(wrapper_of(raw.__func__))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(wrapper_of(raw.__func__))
        else:
            wrapped = wrapper_of(raw)
        setattr(cls, attr, wrapped)
        self._restore.append(functools.partial(setattr, cls, attr, raw))

    def uninstall(self) -> None:
        """Put every original back (idempotent)."""
        while self._restore:
            self._restore.pop()()

    # -- results --------------------------------------------------------------

    def aggregates(self) -> Dict[str, List[float]]:
        """span name -> [calls, total s, self s], merged over threads."""
        merged: Dict[str, List[float]] = {}
        for state in self._states:
            for name, (calls, total, self_s) in state.agg.items():
                record = merged.setdefault(name, [0, 0.0, 0.0])
                record[0] += calls
                record[1] += total
                record[2] += self_s
        return merged

    def counters(self) -> Dict[str, float]:
        merged: Dict[str, float] = {}
        for state in self._states:
            for name, value in state.counts.items():
                merged[name] = merged.get(name, 0) + value
        return merged

    def chrome_events(self) -> List[dict]:
        """Every kept span as a Chrome trace "X" event (microseconds)."""
        events = []
        for state in self._states:
            for name, start, seconds, request in state.events:
                events.append(_slice(name, start - self.epoch, seconds, state.tid, request))
        names = []
        for track, (name, spans) in enumerate(sorted(self.async_spans.items()), 1000):
            # One track per async span name: they overlap freely.
            names.append({"name": "thread_name", "ph": "M", "pid": 1, "tid": track,
                          "args": {"name": name}})
            for start, seconds, request in spans:
                events.append(_slice(name, start - self.epoch, seconds, track, request))
        events.sort(key=lambda event: event["ts"])
        return names + events

    def write_chrome(self, path: str, metadata: Optional[dict] = None) -> int:
        events = self.chrome_events()
        document = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": dict(metadata or {}, dropped_events=self.dropped_events),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        return len(events)


def _slice(name, offset_s, seconds, tid, request) -> dict:
    args = {} if request is None else {"request_id": request}
    return {
        "name": name,
        "cat": name.rsplit(".", 1)[0],
        "ph": "X",
        "ts": round(offset_s * 1e6, 3),
        "dur": round(seconds * 1e6, 3),
        "pid": 1,
        "tid": tid,
        "args": args,
    }
