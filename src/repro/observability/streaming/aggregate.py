"""Streaming per-(predicate, mode) aggregates with mergeable state.

This module keeps, per runtime mode of each predicate, the three
quantities the Markov model predicts — cost in calls, solution
count, success probability (paper §VI-A) — as *online* counters plus
log-bucketed histograms, O(1) per completed Byrd box and O(predicates)
in memory, in the spirit of Ledeniov & Markovitch's per-mode cached
subgoal statistics.

Everything merges: histograms, per-mode aggregates and whole
:class:`StreamAggregates` support ``+``, and round-trip through plain
picklable payloads (``to_payload``/``from_payload``). That is what lets
``robustness/watchdog.py`` calibration workers and ``--jobs`` pools
ship partial aggregates back to the parent for a deterministic
task-order merge, exactly like the calibrator's measurement results.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["LogHistogram", "ModeAggregate", "StreamAggregates"]

Indicator = Tuple[str, int]
#: The aggregation unit: (indicator, rendered runtime mode).
AggregateKey = Tuple[Indicator, str]


def _bucket_of(value: float) -> int:
    """The power-of-two bucket index of a nonnegative value.

    Bucket ``b`` holds values in ``[2**(b-1), 2**b)``; bucket 0 holds
    everything below 1. Integer-friendly and allocation-free.
    """
    if value < 1.0:
        return 0
    return int(value).bit_length()


class LogHistogram:
    """A power-of-two-bucketed histogram of nonnegative values.

    Bucket boundaries double, so 64 buckets cover 19 orders of
    magnitude — costs from one call to a trillion, wall times from a
    microsecond to hours — at a fixed, tiny memory cost. Percentile
    queries return the geometric midpoint of the holding bucket,
    clamped to the observed min/max (exact at the extremes, within a
    factor of ``sqrt(2)`` elsewhere — plenty for drift detection).

    ``scale`` maps raw values into bucket space (e.g. ``1e6`` buckets
    wall-clock *seconds* by the microsecond).
    """

    __slots__ = ("buckets", "count", "total", "min", "max", "scale")

    def __init__(self, scale: float = 1.0):
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.scale = scale

    def add(self, value: float) -> None:
        """Record one nonnegative value."""
        if value < 0:
            value = 0.0
        bucket = _bucket_of(value * self.scale)
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of all recorded values (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The approximate ``q``-quantile (``q`` in [0, 1])."""
        if not self.count:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for bucket in sorted(self.buckets):
            cumulative += self.buckets[bucket]
            if cumulative >= rank:
                if bucket == 0:
                    mid = 0.5
                else:
                    # Geometric midpoint of [2**(b-1), 2**b).
                    mid = 2.0 ** (bucket - 0.5)
                value = mid / self.scale
                low = self.min if self.min is not None else value
                high = self.max if self.max is not None else value
                return min(max(value, low), high)
        return self.max if self.max is not None else 0.0

    def quantiles(self) -> Dict[str, float]:
        """The standard latency trio: p50 / p95 / p99."""
        return {
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }

    def __add__(self, other: "LogHistogram") -> "LogHistogram":
        """Order-independent merge of two histograms (same scale)."""
        merged = LogHistogram(self.scale)
        merged.buckets = dict(self.buckets)
        for bucket, count in other.buckets.items():
            merged.buckets[bucket] = merged.buckets.get(bucket, 0) + count
        merged.count = self.count + other.count
        merged.total = self.total + other.total
        for low in (self.min, other.min):
            if low is not None and (merged.min is None or low < merged.min):
                merged.min = low
        for high in (self.max, other.max):
            if high is not None and (merged.max is None or high > merged.max):
                merged.max = high
        return merged

    def to_payload(self) -> Dict[str, object]:
        """The histogram as one picklable/JSON-able dict."""
        return {
            "buckets": {str(b): c for b, c in self.buckets.items()},
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "scale": self.scale,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "LogHistogram":
        """Rebuild a histogram from :meth:`to_payload` output."""
        histogram = cls(payload.get("scale", 1.0))
        histogram.buckets = {
            int(bucket): count
            for bucket, count in payload.get("buckets", {}).items()
        }
        histogram.count = payload.get("count", 0)
        histogram.total = payload.get("total", 0.0)
        histogram.min = payload.get("min")
        histogram.max = payload.get("max")
        return histogram

    def __len__(self) -> int:
        return self.count


class ModeAggregate:
    """Online statistics of one (predicate, runtime mode).

    Counts completed Byrd boxes ("invocations" in the drift reporter's
    vocabulary) and histograms the three per-box measurements: cost in
    calls, solutions produced, and boxed wall time. Mergeable with
    ``+`` and payload round-trips for cross-process shipping.
    """

    __slots__ = ("boxes", "successes", "solutions", "cost", "wall", "yields")

    #: Wall times are bucketed by the microsecond.
    WALL_SCALE = 1e6

    def __init__(self):
        #: Completed Byrd boxes observed (sampled invocations).
        self.boxes = 0
        #: Boxes that exited at least once.
        self.successes = 0
        #: Total solutions across all boxes.
        self.solutions = 0
        #: Histogram of per-box cost, in predicate calls.
        self.cost = LogHistogram()
        #: Histogram of per-box solution counts.
        self.yields = LogHistogram()
        #: Histogram of per-box wall seconds (call through final fail).
        self.wall = LogHistogram(self.WALL_SCALE)

    def record(self, cost: int, solutions: int, seconds: float) -> None:
        """Fold one completed box into the aggregate."""
        self.boxes += 1
        if solutions:
            self.successes += 1
        self.solutions += solutions
        self.cost.add(cost)
        self.yields.add(solutions)
        self.wall.add(seconds)

    @property
    def mean_cost(self) -> float:
        """Mean per-box cost in calls (the model's ``c``)."""
        return self.cost.mean

    @property
    def mean_solutions(self) -> float:
        """Mean solutions per box (the model's multiplying factor)."""
        return self.solutions / self.boxes if self.boxes else 0.0

    @property
    def success_rate(self) -> float:
        """Fraction of boxes that exited at least once (the model's ``p``)."""
        return self.successes / self.boxes if self.boxes else 0.0

    def __add__(self, other: "ModeAggregate") -> "ModeAggregate":
        """Order-independent merge of two aggregates."""
        merged = ModeAggregate()
        merged.boxes = self.boxes + other.boxes
        merged.successes = self.successes + other.successes
        merged.solutions = self.solutions + other.solutions
        merged.cost = self.cost + other.cost
        merged.yields = self.yields + other.yields
        merged.wall = self.wall + other.wall
        return merged

    def to_payload(self) -> Dict[str, object]:
        """The aggregate as one picklable/JSON-able dict."""
        return {
            "boxes": self.boxes,
            "successes": self.successes,
            "solutions": self.solutions,
            "cost": self.cost.to_payload(),
            "yields": self.yields.to_payload(),
            "wall": self.wall.to_payload(),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "ModeAggregate":
        """Rebuild an aggregate from :meth:`to_payload` output."""
        aggregate = cls()
        aggregate.boxes = payload.get("boxes", 0)
        aggregate.successes = payload.get("successes", 0)
        aggregate.solutions = payload.get("solutions", 0)
        aggregate.cost = LogHistogram.from_payload(payload.get("cost", {}))
        aggregate.yields = LogHistogram.from_payload(payload.get("yields", {}))
        aggregate.wall = LogHistogram.from_payload(payload.get("wall", {}))
        return aggregate


class StreamAggregates:
    """All per-(predicate, mode) aggregates of one telemetry stream.

    Two accounting levels: :attr:`total_calls` counts *every* call per
    predicate, sampled or not (the recorder syncs it from the attached
    engines' own call metrics; standalone users can charge it through
    :meth:`record_call`), while the per-mode :class:`ModeAggregate`
    entries hold the *sampled* boxes — so ``sampled_rate`` is always
    known and consumers can scale. Merge whole objects with ``+``
    (sums both levels) and ship them across processes via payloads.
    """

    __slots__ = ("total_calls", "_modes")

    def __init__(self):
        #: Every call per predicate, sampled or not.
        self.total_calls: Dict[Indicator, int] = {}
        self._modes: Dict[AggregateKey, ModeAggregate] = {}

    def record_call(self, indicator: Indicator) -> int:
        """Charge one call (gate path); returns the predicate's count."""
        count = self.total_calls.get(indicator, 0) + 1
        self.total_calls[indicator] = count
        return count

    def record_box(
        self,
        indicator: Indicator,
        mode_text: str,
        cost: int,
        solutions: int,
        seconds: float,
    ) -> None:
        """Fold one completed sampled box into its mode aggregate."""
        key = (indicator, mode_text)
        aggregate = self._modes.get(key)
        if aggregate is None:
            aggregate = ModeAggregate()
            self._modes[key] = aggregate
        aggregate.record(cost, solutions, seconds)

    def get(self, indicator: Indicator, mode_text: str) -> Optional[ModeAggregate]:
        """The aggregate of one (predicate, mode), or None."""
        return self._modes.get((indicator, mode_text))

    def items(self) -> Iterator[Tuple[AggregateKey, ModeAggregate]]:
        """All ((indicator, mode), aggregate) entries."""
        return iter(self._modes.items())

    def sampled_boxes(self, indicator: Optional[Indicator] = None) -> int:
        """Sampled boxes across all modes, per predicate or overall."""
        if indicator is None:
            return sum(aggregate.boxes for aggregate in self._modes.values())
        return sum(
            aggregate.boxes
            for (entry, _mode), aggregate in self._modes.items()
            if entry == indicator
        )

    def sampled_rate(self, indicator: Optional[Indicator] = None) -> float:
        """Sampled boxes / total calls, per predicate or overall.

        1.0 when nothing was ever gated (no calls seen).
        """
        if indicator is not None:
            total = self.total_calls.get(indicator, 0)
            return self.sampled_boxes(indicator) / total if total else 1.0
        total = sum(self.total_calls.values())
        sampled = sum(aggregate.boxes for aggregate in self._modes.values())
        return sampled / total if total else 1.0

    def __add__(self, other: "StreamAggregates") -> "StreamAggregates":
        """Order-independent merge of two aggregate sets."""
        merged = StreamAggregates()
        merged.total_calls = dict(self.total_calls)
        for indicator, count in other.total_calls.items():
            merged.total_calls[indicator] = (
                merged.total_calls.get(indicator, 0) + count
            )
        merged._modes = dict(self._modes)
        for key, aggregate in other._modes.items():
            mine = merged._modes.get(key)
            merged._modes[key] = aggregate if mine is None else mine + aggregate
        return merged

    def to_payload(self) -> Dict[str, object]:
        """The whole aggregate set as one picklable dict."""
        return {
            "total_calls": [
                [name, arity, count]
                for (name, arity), count in self.total_calls.items()
            ],
            "modes": [
                [name, arity, mode_text, aggregate.to_payload()]
                for ((name, arity), mode_text), aggregate in self._modes.items()
            ],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "StreamAggregates":
        """Rebuild an aggregate set from :meth:`to_payload` output."""
        aggregates = cls()
        for name, arity, count in payload.get("total_calls", []):
            aggregates.total_calls[(name, arity)] = count
        for name, arity, mode_text, entry in payload.get("modes", []):
            aggregates._modes[((name, arity), mode_text)] = (
                ModeAggregate.from_payload(entry)
            )
        return aggregates

    def to_records(self) -> List[Dict[str, object]]:
        """One ``{"type": "stream"}`` JSONL record per (predicate, mode),
        sorted by predicate then mode for deterministic output."""
        records: List[Dict[str, object]] = []
        for ((name, arity), mode_text), aggregate in sorted(
            self._modes.items(), key=lambda item: item[0]
        ):
            indicator = (name, arity)
            records.append(
                {
                    "type": "stream",
                    "predicate": f"{name}/{arity}",
                    "mode": mode_text,
                    "boxes": aggregate.boxes,
                    "successes": aggregate.successes,
                    "solutions": aggregate.solutions,
                    "mean_cost": aggregate.mean_cost,
                    "mean_solutions": aggregate.mean_solutions,
                    "success_rate": aggregate.success_rate,
                    "total_calls": self.total_calls.get(indicator, 0),
                    "sampled_rate": self.sampled_rate(indicator),
                    "cost": aggregate.cost.quantiles(),
                    "wall": aggregate.wall.quantiles(),
                }
            )
        return records

    def __len__(self) -> int:
        return len(self._modes)
