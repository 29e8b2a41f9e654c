"""Execution instrumentation.

The paper measures efficiency as "the number of predicate calls or
unifications; CPU time is too coarse a measure and sometimes misleading"
(§I-B). :class:`Metrics` counts both, plus backtracking events, and can
break calls down per predicate so that the experiment harness can report
the Table II/III/IV "number of calls" columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

__all__ = ["Metrics"]

Indicator = Tuple[str, int]


@dataclass
class Metrics:
    """Counters maintained by the engine during query evaluation."""

    #: Total predicate calls (user + builtin): the paper's primary metric.
    calls: int = 0
    #: Head-unification attempts.
    unifications: int = 0
    #: Successful head unifications (clause entries).
    clause_entries: int = 0
    #: Times the engine resumed an earlier choice point.
    backtracks: int = 0
    #: Clause-skeleton instantiations by the compiled clause path
    #: (one per head attempt that was not fast-rejected).
    skeleton_instantiations: int = 0
    #: Head attempts skipped by the cached first-argument fingerprint
    #: (still charged as failed unifications, so ``unifications`` stays
    #: comparable with the interpreted path).
    head_fast_rejects: int = 0
    #: Calls per predicate indicator.
    calls_by_predicate: Dict[Indicator, int] = field(default_factory=dict)
    #: Tabled calls answered from an existing variant table.
    table_hits: int = 0
    #: Tabled calls that created a new variant table.
    table_misses: int = 0
    #: Distinct answers stored into tables.
    table_answers: int = 0
    #: Variant tables that reached their fixpoint.
    tables_completed: int = 0

    def record_unification(self, succeeded: bool) -> None:
        """Charge one head-unification attempt."""
        self.unifications += 1
        if succeeded:
            self.clause_entries += 1

    def record_backtrack(self) -> None:
        """Charge one clause retry."""
        self.backtracks += 1

    def record_table_hit(self) -> None:
        """Charge one tabled call served from an existing table."""
        self.table_hits += 1

    def record_table_miss(self) -> None:
        """Charge one tabled call that opened a new table."""
        self.table_misses += 1

    def record_table_answer(self) -> None:
        """Charge one distinct answer stored into a table."""
        self.table_answers += 1

    def record_table_complete(self) -> None:
        """Charge one table reaching its fixpoint."""
        self.tables_completed += 1

    def snapshot(self) -> "Metrics":
        """An independent copy of the current counters."""
        return Metrics(
            calls=self.calls,
            unifications=self.unifications,
            clause_entries=self.clause_entries,
            backtracks=self.backtracks,
            skeleton_instantiations=self.skeleton_instantiations,
            head_fast_rejects=self.head_fast_rejects,
            calls_by_predicate=dict(self.calls_by_predicate),
            table_hits=self.table_hits,
            table_misses=self.table_misses,
            table_answers=self.table_answers,
            tables_completed=self.tables_completed,
        )

    def __sub__(self, other: "Metrics") -> "Metrics":
        by_predicate = dict(self.calls_by_predicate)
        for key, value in other.calls_by_predicate.items():
            by_predicate[key] = by_predicate.get(key, 0) - value
        return Metrics(
            calls=self.calls - other.calls,
            unifications=self.unifications - other.unifications,
            clause_entries=self.clause_entries - other.clause_entries,
            backtracks=self.backtracks - other.backtracks,
            skeleton_instantiations=(
                self.skeleton_instantiations - other.skeleton_instantiations
            ),
            head_fast_rejects=self.head_fast_rejects - other.head_fast_rejects,
            calls_by_predicate={k: v for k, v in by_predicate.items() if v},
            table_hits=self.table_hits - other.table_hits,
            table_misses=self.table_misses - other.table_misses,
            table_answers=self.table_answers - other.table_answers,
            tables_completed=self.tables_completed - other.tables_completed,
        )

    def __add__(self, other: "Metrics") -> "Metrics":
        by_predicate = dict(self.calls_by_predicate)
        for key, value in other.calls_by_predicate.items():
            by_predicate[key] = by_predicate.get(key, 0) + value
        return Metrics(
            calls=self.calls + other.calls,
            unifications=self.unifications + other.unifications,
            clause_entries=self.clause_entries + other.clause_entries,
            backtracks=self.backtracks + other.backtracks,
            skeleton_instantiations=(
                self.skeleton_instantiations + other.skeleton_instantiations
            ),
            head_fast_rejects=self.head_fast_rejects + other.head_fast_rejects,
            calls_by_predicate={k: v for k, v in by_predicate.items() if v},
            table_hits=self.table_hits + other.table_hits,
            table_misses=self.table_misses + other.table_misses,
            table_answers=self.table_answers + other.table_answers,
            tables_completed=self.tables_completed + other.tables_completed,
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable counters; per-predicate keys become
        ``name/arity`` strings, sorted for deterministic output."""
        return {
            "calls": self.calls,
            "unifications": self.unifications,
            "clause_entries": self.clause_entries,
            "backtracks": self.backtracks,
            "skeleton_instantiations": self.skeleton_instantiations,
            "head_fast_rejects": self.head_fast_rejects,
            "table_hits": self.table_hits,
            "table_misses": self.table_misses,
            "table_answers": self.table_answers,
            "tables_completed": self.tables_completed,
            "calls_by_predicate": {
                f"{name}/{arity}": count
                for (name, arity), count in sorted(self.calls_by_predicate.items())
            },
        }
