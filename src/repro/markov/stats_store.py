"""Keyed storage for measured :class:`GoalStats`.

The empirical calibrator (paper §I-E) is by far the most expensive
analysis — every ``(indicator, mode)`` pair costs up to ``max_samples``
full engine runs. This store lets the reorderer's ``AnalysisContext``
keep those measurements across reorder runs and re-measure only the
pairs whose predicates actually changed (the edited SCC plus its
callers), in the spirit of Ledeniov & Markovitch's cached subgoal
statistics.

A stored value of ``None`` is meaningful: it records that measurement
was *attempted and failed* (a sample errored or blew the call budget),
so the pair is not pointlessly re-measured until an edit invalidates
it. Use :meth:`lookup` to distinguish "measured, failed" from "never
measured".
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Tuple

from .goal_stats import GoalStats

__all__ = ["StatsStore"]

Indicator = Tuple[str, int]
#: (indicator, mode) — the calibration unit.
StatsKey = Tuple[Indicator, tuple]


class StatsStore:
    """Measured per-(predicate, mode) statistics with targeted
    invalidation by predicate."""

    def __init__(self) -> None:
        self._entries: Dict[StatsKey, Optional[GoalStats]] = {}

    def lookup(self, key: StatsKey) -> Tuple[bool, Optional[GoalStats]]:
        """``(known, stats)`` — ``known`` is False when the pair was
        never measured; ``stats`` is None for a failed measurement."""
        if key in self._entries:
            return True, self._entries[key]
        return False, None

    def put(self, key: StatsKey, stats: Optional[GoalStats]) -> None:
        """Record one measurement result (None = measurement failed)."""
        self._entries[key] = stats

    def invalidate(self, indicators: Iterable[Indicator]) -> int:
        """Drop all entries of the given predicates; returns the count
        dropped."""
        doomed = set(indicators)
        if not doomed:
            return 0
        stale = [key for key in self._entries if key[0] in doomed]
        for key in stale:
            del self._entries[key]
        return len(stale)

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: StatsKey) -> bool:
        return key in self._entries

    def items(self) -> Iterator[Tuple[StatsKey, Optional[GoalStats]]]:
        """All (key, stats) entries, in insertion order."""
        return iter(self._entries.items())
