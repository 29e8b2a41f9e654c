"""The sampling ring-buffer recorder: tracing that is safe to leave on.

``engine.recorder`` is the engine's one per-call instrumentation slot,
and :class:`StreamingRecorder` is its standard occupant. With its
default sampling it is the always-on production channel; with
``sample_every=1`` every box is recorded, which is the exhaustive mode
``repro profile``, ``run --profile`` and ``compare --profile`` use:

* the sampling decision is *inlined in the engine*: a hot predicate
  costs one set-membership test (:attr:`StreamingRecorder.hot`) and a
  stride check against the engine's own ``metrics.calls`` counter — no
  per-call function call, no counter of the recorder's own; only
  predicates still in their rare phase reach :meth:`admit_cold`;
* sampling is **1-in-N** (``sample_every``) with a **rare-predicate
  override**: a predicate's first ``rare_threshold`` calls are always
  sampled, so cold predicates are fully observed while hot ones are
  decimated;
* per-box *cost in calls* is exact even when the descendants' own
  boxes were not sampled, because it is a delta of the engine's
  ``metrics.calls`` — which the engine already charges on every call;
  per-predicate call totals are synced lazily from the same metrics
  (:meth:`sync`, run automatically when :attr:`aggregates` is read),
  so ``sampled_rate`` is exact too;
* completed box samples land in a bounded :class:`RingBuffer` (recent
  history) and per-predicate :class:`ReservoirSampler` s (uniform
  history for rare predicates), and fold into the streaming
  :class:`StreamAggregates` — memory stays bounded forever.

Use :func:`attach_recorder` rather than assigning ``engine.recorder``
directly: attaching *binds* the engine's metrics so the recorder can
account calls (a bare assignment still samples and attributes cost
correctly, but ``calls``/``sampled_rate`` stay at their attach-less
zero).

The recorder deliberately does not instrument the clause database:
index events are an offline-profiling concern, and constructing them
per lookup would blow the continuous-overhead budget that
``benchmarks/obs_bench.py`` gates.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Tuple

from .aggregate import StreamAggregates
from .ring import ReservoirSampler, RingBuffer

__all__ = [
    "BoxSample",
    "StreamingRecorder",
    "attach_recorder",
    "detach_recorder",
]

Indicator = Tuple[str, int]


class BoxSample:
    """One completed, sampled Byrd box: the unit the ring retains."""

    __slots__ = (
        "indicator",
        "mode",
        "depth",
        "ts",
        "seconds",
        "cost",
        "solutions",
    )

    def __init__(
        self,
        indicator: Indicator,
        mode: str,
        depth: int,
        ts: float,
        seconds: float,
        cost: int,
        solutions: int,
    ):
        self.indicator = indicator
        self.mode = mode
        self.depth = depth
        #: ``perf_counter()`` at the box's call port.
        self.ts = ts
        #: Wall seconds, call through final fail (pauses included).
        self.seconds = seconds
        #: 1 + calls made while the box was active (drift semantics).
        self.cost = cost
        self.solutions = solutions

    @property
    def succeeded(self) -> bool:
        """Did the box exit at least once?"""
        return self.solutions > 0

    def to_record(self) -> Dict[str, object]:
        """The sample as one flat JSONL-ready dict."""
        return {
            "type": "sample",
            "predicate": f"{self.indicator[0]}/{self.indicator[1]}",
            "mode": self.mode,
            "depth": self.depth,
            "ts": self.ts,
            "seconds": self.seconds,
            "cost": self.cost,
            "solutions": self.solutions,
        }


class _OpenBox:
    """Bookkeeping of one in-flight sampled box."""

    __slots__ = (
        "indicator",
        "mode",
        "depth",
        "ts",
        "metrics",
        "resumed_at",
        "accumulated",
        "solutions",
        "paused",
    )

    def __init__(self, indicator: Indicator, mode: str, depth: int, ts: float, metrics):
        self.indicator = indicator
        self.mode = mode
        self.depth = depth
        self.ts = ts
        #: The owning engine's metrics: its ``calls`` counter is the
        #: exact global call clock this box's cost is measured on.
        self.metrics = metrics
        #: ``metrics.calls`` value when the box (re)gained control.
        self.resumed_at = metrics.calls
        #: Calls charged across completed active windows.
        self.accumulated = 0
        self.solutions = 0
        self.paused = False


class _MetricsBinding:
    """One attached engine's metrics plus the attach-time baselines."""

    __slots__ = ("metrics", "by_predicate_base")

    def __init__(self, metrics):
        self.metrics = metrics
        self.by_predicate_base = dict(metrics.calls_by_predicate)


class StreamingRecorder:
    """Sampling recorder safe to leave attached under sustained load.

    ``sample_every`` keeps 1-in-N boxes once a predicate is past its
    ``rare_threshold`` first calls (which are all kept). Retained
    samples go to a ``capacity``-bounded ring plus per-predicate
    reservoirs of ``reservoir_size`` (seeded, deterministic), and every
    sampled box folds into :attr:`aggregates`.

    The engine drives sampling inline: a predicate in :attr:`hot` is
    sampled when ``metrics.calls % sample_every == 0``; anything else
    goes through :meth:`admit_cold`, which always samples and promotes
    the predicate to :attr:`hot` after its ``rare_threshold``-th call.
    """

    def __init__(
        self,
        capacity: int = 8_192,
        sample_every: int = 64,
        rare_threshold: int = 64,
        reservoir_size: int = 16,
        seed: int = 0,
    ):
        self.capacity = capacity
        self.sample_every = max(1, sample_every)
        self.rare_threshold = max(0, rare_threshold)
        self.reservoir_size = max(0, reservoir_size)
        self.seed = seed
        #: Recent sampled boxes, oldest first (bounded).
        self.ring: RingBuffer = RingBuffer(capacity)
        #: Uniform per-predicate sample history (bounded per predicate).
        self.reservoirs: Dict[Indicator, ReservoirSampler] = {}
        #: Streaming per-(predicate, mode) statistics. Read through the
        #: :attr:`aggregates` property so call totals are synced first.
        self._aggregates = StreamAggregates()
        #: Predicates past their rare phase: the engine's inline fast
        #: path is one membership test against this set.
        self.hot: set = set()
        #: Calls seen per predicate while still cold (rare phase only).
        self._cold_counts: Dict[Indicator, int] = {}
        #: Metrics of the engines this recorder is attached to.
        self._bindings: List[_MetricsBinding] = []

    # -- sampling admission (cold path; hot path is inline in Engine) -----

    def admit_cold(self, indicator: Indicator, metrics) -> bool:
        """Sampling decision for a predicate not (yet) in :attr:`hot`.

        Rare-phase calls are always sampled; the ``rare_threshold``-th
        call promotes the predicate to :attr:`hot`, after which the
        engine never calls back here. With ``rare_threshold == 0`` the
        promotion happens on the first call, which already follows the
        1-in-N stride.
        """
        n = self._cold_counts.get(indicator, 0) + 1
        if n > self.rare_threshold:
            self.hot.add(indicator)
            self._cold_counts.pop(indicator, None)
            return not metrics.calls % self.sample_every
        self._cold_counts[indicator] = n
        return True

    # -- call accounting (lazily synced from bound engine metrics) --------

    def bind(self, metrics) -> None:
        """Start accounting calls charged to ``metrics`` (idempotent)."""
        for binding in self._bindings:
            if binding.metrics is metrics:
                return
        self._bindings.append(_MetricsBinding(metrics))

    def unbind(self, metrics) -> None:
        """Fold ``metrics``'s outstanding calls in and stop tracking it."""
        self.sync()
        self._bindings = [
            binding
            for binding in self._bindings
            if binding.metrics is not metrics
        ]

    def sync(self) -> None:
        """Fold bound engines' call counters into the aggregates.

        Idempotent and cheap (O(predicates) per bound engine); runs
        automatically whenever :attr:`aggregates` or :attr:`calls` is
        read, so the hot path never maintains totals of its own.
        """
        totals = self._aggregates.total_calls
        # Snapshot both the binding list and each per-predicate counter
        # dict: under ``repro serve`` engines mutate their metrics on
        # worker threads while the event loop reads the aggregates, and
        # iterating a dict being resized raises.
        for binding in list(self._bindings):
            metrics = binding.metrics
            base = binding.by_predicate_base
            for indicator, count in list(metrics.calls_by_predicate.items()):
                previous = base.get(indicator, 0)
                if count != previous:
                    totals[indicator] = (
                        totals.get(indicator, 0) + count - previous
                    )
                    base[indicator] = count

    @property
    def aggregates(self) -> StreamAggregates:
        """The streaming statistics, with call totals synced."""
        self.sync()
        return self._aggregates

    @property
    def calls(self) -> int:
        """Calls charged to bound engines since attach (exact)."""
        self.sync()
        return sum(self._aggregates.total_calls.values())

    # -- box lifecycle (driven by the engine and the VM) ------------------

    def open_box(
        self, indicator: Indicator, mode: str, depth: int, metrics, goal
    ) -> _OpenBox:
        """Start tracking one sampled box on ``metrics``'s call clock.

        ``goal`` (the called term) is part of the hook signature for
        consumers that render goals; the recorder does not keep it.
        """
        return _OpenBox(indicator, mode, depth, perf_counter(), metrics)

    def pause_box(self, box: _OpenBox) -> None:
        """The box exited: control (and the call clock) leave it."""
        box.accumulated += box.metrics.calls - box.resumed_at
        box.solutions += 1
        box.paused = True

    def resume_box(self, box: _OpenBox) -> None:
        """The box is redone: calls charge to it again."""
        box.resumed_at = box.metrics.calls
        box.paused = False

    def close_box(self, box: _OpenBox, failed: bool) -> BoxSample:
        """Finalise one box into a sample; folds it into everything.

        ``failed`` is False for boxes abandoned mid-solution (cut /
        ``once`` / solution limits / exceptions); whatever was observed
        still counts, so the sample is recorded either way.
        """
        if not box.paused:
            box.accumulated += box.metrics.calls - box.resumed_at
        sample = BoxSample(
            box.indicator,
            box.mode,
            box.depth,
            box.ts,
            perf_counter() - box.ts,
            box.accumulated + 1,
            box.solutions,
        )
        self.ring.append(sample)
        if self.reservoir_size:
            reservoir = self.reservoirs.get(box.indicator)
            if reservoir is None:
                reservoir = ReservoirSampler(
                    self.reservoir_size,
                    seed=self.seed ^ hash(box.indicator) & 0xFFFF_FFFF,
                )
                self.reservoirs[box.indicator] = reservoir
            reservoir.offer(sample)
        self._aggregates.record_box(
            box.indicator,
            box.mode,
            sample.cost,
            sample.solutions,
            sample.seconds,
        )
        return sample

    # -- reporting --------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Samples evicted from the ring so far."""
        return self.ring.dropped

    @property
    def truncated(self) -> bool:
        """Was any sample evicted from the ring?"""
        return self.ring.truncated

    def sampled_rate(self) -> float:
        """Overall sampled boxes / total calls (1.0 before any call)."""
        return self.aggregates.sampled_rate()  # property: syncs first

    def samples(self) -> List[BoxSample]:
        """Ring plus reservoir samples, deduplicated, in call order."""
        seen = set()
        merged: List[BoxSample] = []
        for sample in self.ring:
            seen.add(id(sample))
            merged.append(sample)
        for reservoir in self.reservoirs.values():
            for sample in reservoir:
                if id(sample) not in seen:
                    seen.add(id(sample))
                    merged.append(sample)
        merged.sort(key=lambda sample: sample.ts)
        return merged

    def summary_lines(self, top: int = 8) -> List[str]:
        """A compact human-readable snapshot (for ``--follow``)."""
        aggregates = self.aggregates  # property: syncs call totals
        total = sum(aggregates.total_calls.values())
        sampled = sum(a.boxes for _k, a in aggregates.items())
        lines = [
            f"calls={total} sampled={sampled} "
            f"({self.sampled_rate() * 100.0:.1f}%) ring={len(self.ring)} "
            f"dropped={self.dropped}"
        ]
        busiest = sorted(
            aggregates.total_calls.items(), key=lambda item: -item[1]
        )[:top]
        for indicator, count in busiest:
            rate = aggregates.sampled_rate(indicator)
            lines.append(
                f"  {indicator[0]}/{indicator[1]:<3} {count:>8} calls "
                f"(sampled {rate * 100.0:.0f}%)"
            )
        return lines

    def __len__(self) -> int:
        return len(self.ring)


def attach_recorder(engine, recorder: Optional[StreamingRecorder] = None) -> StreamingRecorder:
    """Attach a streaming recorder to an engine; returns the recorder.

    Duck-typed like :func:`repro.observability.events.attach`, but
    engine-only: the clause database is left uninstrumented on purpose
    (index events are too hot for the always-on path). Attaching also
    binds the engine's metrics, which is what makes the recorder's
    call accounting (``calls``, per-predicate totals, ``sampled_rate``)
    exact; one recorder may be attached to several engines (e.g. the
    calibrator's sample engines, a server's per-request engines) and
    accounts them all.

    Idempotent: re-attaching the same recorder is a no-op (``bind``
    already dedupes by metrics identity), and attaching a *different*
    recorder first detaches the old one so an engine is never left
    double-instrumented with a stale binding.
    """
    recorder = recorder if recorder is not None else StreamingRecorder()
    previous = getattr(engine, "recorder", None)
    if previous is not None and previous is not recorder:
        detach_recorder(engine)
    recorder.bind(engine.metrics)
    engine.recorder = recorder
    return recorder


def detach_recorder(engine) -> Optional[StreamingRecorder]:
    """Detach and return the engine's recorder (restores the fast path).

    The engine's outstanding calls are folded into the recorder's
    totals before its metrics stop being tracked.

    Idempotent and exception-safe by design: a second detach returns
    None without touching anything, and ``unbind`` on a metrics object
    that was never (or is no longer) bound is a no-op — so callers can
    (and should) put this in a ``finally`` around request execution,
    where it runs once whether the request completed, faulted, or was
    cancelled mid-query. A recorder must never outlive its binding to
    a dead engine's metrics: the binding would silently keep folding a
    stale baseline into the aggregates on every :meth:`~StreamingRecorder.sync`.
    """
    recorder = getattr(engine, "recorder", None)
    engine.recorder = None
    if recorder is not None:
        recorder.unbind(engine.metrics)
    return recorder
