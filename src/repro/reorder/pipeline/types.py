"""Public data types of the reordering pipeline.

These used to live inside ``reorder/system.py``; they are the stable
surface of the reorderer — :class:`ReorderOptions` (the knobs),
:class:`ModeVersion` (one specialised predicate version),
:class:`ReorderReport` (decisions + warnings) and
:class:`ReorderedProgram` (the drop-in replacement program). The
:class:`~repro.reorder.system.Reorderer` facade re-exports all of them,
so existing imports keep working.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ...analysis.modes import Mode, mode_str
from ...markov.backend import BackendChoice
from ...markov.goal_stats import GoalStats
from ...prolog.database import Clause, Database
from ...prolog.engine import Engine
from ...prolog.terms import indicator_str
from ...prolog.writer import op_directives, program_to_string
from ..goal_search import DEFAULT_EXHAUSTIVE_LIMIT

__all__ = [
    "MAX_VERSIONS",
    "ReorderOptions",
    "ModeVersion",
    "ReorderReport",
    "ReorderedProgram",
]

Indicator = Tuple[str, int]

#: Predicates with more legal modes than this are not specialised
#: (they are reordered in place, as with ``specialize=False``).
MAX_VERSIONS = 16


@dataclass
class ReorderOptions:
    """Knobs of the reordering system."""

    #: Reorder goals within clauses (§III-B).
    reorder_goals: bool = True
    #: Reorder clauses within predicates (§III-A).
    reorder_clauses: bool = True
    #: Emit one version per legal mode plus dispatchers (§VII); when
    #: False, each predicate is reordered in place for its most general
    #: legal mode and keeps its name.
    specialize: bool = True
    #: Blocks up to this size are permuted exhaustively; larger ones use
    #: the A* best-first search (§VI-A-3).
    exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT
    #: §V-D run-time tests: when a predicate is reordered *in place*
    #: (specialize=False, or more than :data:`MAX_VERSIONS` modes),
    #: clauses whose best order under full instantiation differs from
    #: the generic order get a ``nonvar``-guarded if-then-else — "the
    #: tests are the if, the reordered version is the then, and the
    #: original is the else".
    runtime_tests: bool = False
    #: §VIII unfolding: sweeps of Tamaki–Sato goal unfolding applied to
    #: the program before analysis, to "increase the possibilities for
    #: reordering". 0 disables.
    unfold_rounds: int = 0
    #: Cost-model assumption that *every* user predicate runs tabled
    #: (the engine's ``table_all`` switch / CLI ``--table-all``):
    #: recursive calls become cheap answer streams and per-predicate
    #: costs amortize, so the chosen goal orders can differ.
    table_all: bool = False
    #: Wall-clock allowance, in seconds, for building any *one*
    #: predicate (mode enumeration + version build + dedup). A
    #: predicate that blows it is degraded to source order; None
    #: disables the per-predicate deadline.
    phase_timeout: Optional[float] = None
    #: Cap on A* child generations per block; past it the cheapest open
    #: prefix is completed greedily (strategy ``astar-greedy``). None
    #: leaves the search unbounded (the golden-pinned default).
    astar_node_budget: Optional[int] = None

    def cache_key(self) -> Tuple:
        """The option fields a cached per-predicate build depends on.

        ``unfold_rounds`` is resolved before analysis, so it does not
        invalidate cached builds.
        """
        return (
            self.reorder_goals,
            self.reorder_clauses,
            self.specialize,
            self.exhaustive_limit,
            self.runtime_tests,
            self.table_all,
            self.phase_timeout,
            self.astar_node_budget,
        )


@dataclass
class ModeVersion:
    """One mode-specialised version of one predicate."""

    indicator: Indicator
    mode: Mode
    name: str
    clauses: List[Clause]
    #: Model estimate for the reordered version.
    estimate: Optional[GoalStats]
    #: Model estimate for the original (for the report).
    original_estimate: Optional[GoalStats]

    @property
    def version_indicator(self) -> Indicator:
        return (self.name, self.indicator[1])


@dataclass
class ReorderReport:
    """What the reorderer did and what it could not do."""

    warnings: List[str] = field(default_factory=list)
    #: (indicator, mode) → human-readable decision lines.
    decisions: Dict[Tuple[Indicator, Mode], List[str]] = field(default_factory=dict)
    fixed_predicates: Set[Indicator] = field(default_factory=set)
    recursive_predicates: Set[Indicator] = field(default_factory=set)
    semifixed_predicates: Set[Indicator] = field(default_factory=set)
    tabled_predicates: Set[Indicator] = field(default_factory=set)
    #: (indicator, mode) pairs the empirical calibrator could not
    #: measure, rendered as human-readable lines (see
    #: :meth:`repro.analysis.calibration.EmpiricalCalibrator.failure_warnings`).
    calibration_failures: List[str] = field(default_factory=list)
    #: Predicates the pipeline degraded to source order after a build
    #: failure or per-predicate timeout: indicator → one-line reason.
    #: Every other predicate's output is unaffected (isolation is
    #: per-predicate; see docs/ROBUSTNESS.md).
    degraded: Dict[Indicator, str] = field(default_factory=dict)
    #: Per-predicate evaluation-backend verdicts (see
    #: :class:`~repro.markov.backend.BackendChoice` and
    #: docs/EVALUATION.md): which strata the engine's ``--eval=auto``
    #: dispatcher would materialize bottom-up instead of running SLD.
    backends: Dict[Indicator, BackendChoice] = field(default_factory=dict)
    #: Chronological note log — lets the incremental pipeline replay a
    #: cached predicate's decision lines in their original order.
    _log: List[Tuple[Indicator, Mode, str]] = field(
        default_factory=list, repr=False, compare=False
    )

    def note(self, indicator: Indicator, mode: Mode, line: str) -> None:
        """Record one human-readable decision line."""
        self.decisions.setdefault((indicator, mode), []).append(line)
        self._log.append((indicator, mode, line))

    def summary(self) -> str:
        """All decisions and warnings as one text block."""
        lines = []
        for (indicator, mode), notes in self.decisions.items():
            header = f"{indicator_str(indicator)} {mode_str(mode)}"
            for note in notes:
                lines.append(f"{header}: {note}")
        for warning in self.warnings:
            lines.append(f"warning: {warning}")
        for failure in self.calibration_failures:
            lines.append(f"calibration failure: {failure}")
        for indicator, reason in self.degraded.items():
            lines.append(
                f"degraded: {indicator_str(indicator)} kept in source order ({reason})"
            )
        for indicator, choice in sorted(self.backends.items()):
            if choice.backend != "topdown":
                lines.append(
                    f"backend: {indicator_str(indicator)} -> "
                    f"{choice.backend} ({choice.reason})"
                )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """The report as JSON-serializable data (for the JSONL export)."""
        decisions = [
            {
                "predicate": indicator_str(indicator),
                "mode": mode_str(mode),
                "note": note,
            }
            for (indicator, mode), notes in self.decisions.items()
            for note in notes
        ]
        result: Dict[str, object] = {
            "decisions": decisions,
            "warnings": list(self.warnings),
            "fixed": sorted(indicator_str(i) for i in self.fixed_predicates),
            "recursive": sorted(
                indicator_str(i) for i in self.recursive_predicates
            ),
            "semifixed": sorted(
                indicator_str(i) for i in self.semifixed_predicates
            ),
            "tabled": sorted(
                indicator_str(i) for i in self.tabled_predicates
            ),
            "backends": [
                {
                    "predicate": indicator_str(indicator),
                    "backend": choice.backend,
                    "reason": choice.reason,
                }
                for indicator, choice in sorted(self.backends.items())
            ],
        }
        # Optional key (only when calibration actually failed), so the
        # common no-calibration report stays byte-compatible with the
        # pre-pipeline reorderer.
        if self.calibration_failures:
            result["calibration_failures"] = list(self.calibration_failures)
        if self.degraded:
            result["degraded"] = [
                {"predicate": indicator_str(indicator), "reason": reason}
                for indicator, reason in self.degraded.items()
            ]
        return result


class ReorderedProgram:
    """The output of the reorderer: a drop-in replacement program."""

    def __init__(
        self,
        database: Database,
        versions: Dict[Tuple[Indicator, Mode], ModeVersion],
        report: ReorderReport,
        original: Database,
        version_names: Optional[Dict[Tuple[Indicator, Mode], str]] = None,
    ):
        self.database = database
        self.versions = versions
        self.report = report
        self.original = original
        self._version_names = version_names or {}

    def version_name(self, indicator: Indicator, mode: Mode) -> Optional[str]:
        """The specialised predicate name serving a call mode (modes
        merged into another version resolve to the canonical name)."""
        name = self._version_names.get((indicator, mode))
        if name is not None:
            return name
        version = self.versions.get((indicator, mode))
        return version.name if version else None

    def engine(self, **kwargs) -> Engine:
        """An engine executing the reordered program."""
        return Engine(self.database, **kwargs)

    def source(self) -> str:
        """The reordered program as Prolog source text.

        ``:- op`` directives for the program's own operators come
        first, so the clauses parse, then ``:- table`` directives
        (under the specialised version names), so consulting the
        printed program reproduces the tabling behaviour of the
        in-memory one.
        """
        operators = self.database.operators
        directives = op_directives(operators) + [
            f":- table {name}/{arity}."
            for name, arity in sorted(self.database.tabled)
        ]
        body = program_to_string(self.database.to_terms(), operators)
        return "".join(line + "\n" for line in directives) + body
