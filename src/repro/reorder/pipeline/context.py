"""The incremental analysis context of the reordering pipeline.

:class:`AnalysisContext` owns everything the pipeline derives from the
program — declarations, call graph, fixity, semifixity, inferred modes,
domains, the Markov cost model, and the per-predicate build results —
keyed by the database's generation counter and the reorder options.
:meth:`refresh` compares the database's per-predicate generation
watermarks against the last snapshot, computes the dirty predicate
set, widens it to the invalidation closure (each dirty predicate's SCC
plus its transitive callers — see
:func:`repro.analysis.recursion.affected_predicates`), and drops only
the affected cached builds. Re-reordering after editing one predicate
therefore recomputes only that SCC and its callers; everything else
replays from cache.

Every cache consultation is counted (:attr:`hits`/:attr:`misses` per
stage) and surfaced through the existing pipeline spans
(``cache="hit"|"miss"`` span metadata).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ...analysis.callgraph import CallGraph
from ...analysis.declarations import Declarations
from ...analysis.domains import DomainAnalysis
from ...analysis.fixity import FixityAnalysis
from ...analysis.mode_inference import ModeInference
from ...analysis.modes import Mode
from ...analysis.recursion import affected_predicates
from ...analysis.semifixity import SemifixityAnalysis
from ...markov.goal_stats import GoalStats
from ...markov.predicate_model import CostModel
from ...observability.spans import SpanRecorder
from ...prolog.database import Database
from ...prolog.terms import indicator_str
from .types import Indicator, ModeVersion, ReorderOptions

__all__ = ["AnalysisContext", "CachedPredicateBuild", "ANALYSIS_STAGES"]

#: The whole-program analysis stages the context caches, in the order
#: (and under the span names) the pre-pipeline Reorderer ran them.
ANALYSIS_STAGES = (
    "declarations",
    "call graph",
    "fixity",
    "semifixity",
    "mode inference",
)

#: Counter key for the per-predicate build cache.
BUILD_STAGE = "version build"


@dataclass
class CachedPredicateBuild:
    """Everything one predicate's build produced, recorded so a cache
    hit can replay the *exact* side effects of a fresh build. The
    fields after ``versions`` are the entries the build appended to
    each stream the runner's ledger tracks, in order."""

    versions: List[ModeVersion]
    #: ((indicator, mode), name) in registration order (dispatcher
    #: clause order follows it).
    version_names: List[Tuple[Tuple[Indicator, Mode], str]] = field(
        default_factory=list
    )
    #: (indicator, mode, line) decision notes in chronological order.
    notes: List[Tuple[Indicator, Mode, str]] = field(default_factory=list)
    #: Warnings appended directly to ``report.warnings`` (e.g. the
    #: no-legal-modes warning from mode enumeration).
    report_warnings: List[str] = field(default_factory=list)
    #: Mode-inference warnings first emitted during this build.
    modes_warnings: List[str] = field(default_factory=list)
    #: Cost-model warnings first emitted during this build.
    model_warnings: List[str] = field(default_factory=list)
    #: (indicator, mode, stats) cost-model overrides, in installation
    #: order. Kept apart from ``versions`` because dedup may drop a
    #: version whose override persists.
    overrides: List[Tuple[Indicator, Mode, GoalStats]] = field(
        default_factory=list
    )


class AnalysisContext:
    """Caches program analyses and per-predicate builds across reorder
    runs over one :class:`Database`.

    Construct it once per database, hand it to successive
    ``Reorderer(database, context=...)`` instances, and edit the
    database freely in between; :meth:`refresh` invalidates exactly the
    affected entries.
    """

    def __init__(
        self,
        database: Database,
        declarations: Optional[Declarations] = None,
    ):
        self.database = database
        #: User-supplied declarations (None = read from the database on
        #: every refresh, like the pre-pipeline Reorderer did).
        self._declared = declarations
        # Derived analyses (populated by refresh()).
        self.declarations: Optional[Declarations] = None
        self.callgraph: Optional[CallGraph] = None
        self.fixity: Optional[FixityAnalysis] = None
        self.semifixity: Optional[SemifixityAnalysis] = None
        self.modes: Optional[ModeInference] = None
        self.domains: Optional[DomainAnalysis] = None
        self.model: Optional[CostModel] = None
        # Cache bookkeeping.
        self.generation: Optional[int] = None
        self._marks: Dict[Indicator, int] = {}
        self._options_key: Optional[Tuple] = None
        self._builds: Dict[Indicator, CachedPredicateBuild] = {}
        #: Cache consultations per stage.
        self.hits: Dict[str, int] = {}
        self.misses: Dict[str, int] = {}
        #: Most recent refresh's edited predicates / invalidation closure.
        self.last_dirty: frozenset = frozenset()
        self.last_affected: frozenset = frozenset()

    # -- counters ---------------------------------------------------------

    def _count(self, stage: str, hit: bool) -> None:
        tally = self.hits if hit else self.misses
        tally[stage] = tally.get(stage, 0) + 1

    def reset_counters(self) -> None:
        """Zero the hit/miss tallies (typically between reorder runs)."""
        self.hits.clear()
        self.misses.clear()

    def counters_record(self) -> Dict[str, object]:
        """One JSONL-ready record summarizing cache behaviour (exported
        by ``repro reorder --json`` / ``repro profile --json``)."""
        return {
            "type": "cache",
            "hits": dict(sorted(self.hits.items())),
            "misses": dict(sorted(self.misses.items())),
            "dirty": sorted(indicator_str(i) for i in self.last_dirty),
            "affected": sorted(indicator_str(i) for i in self.last_affected),
        }

    # -- analyses ---------------------------------------------------------

    def refresh(
        self,
        options: Optional[ReorderOptions] = None,
        spans: Optional[SpanRecorder] = None,
    ) -> "AnalysisContext":
        """Bring every cached artefact up to date with the database.

        Unchanged database + unchanged options is a pure cache hit.
        Otherwise the per-predicate watermarks yield the dirty set,
        which is widened to its invalidation closure and its builds are
        dropped. The whole-program analyses are rebuilt when the program
        text or the options changed: their warnings are emitted once per
        analysis object, so a build made under new options needs fresh
        analyses to report the same warnings as a cold run.
        """
        options = options or ReorderOptions()
        spans = spans if spans is not None else SpanRecorder()
        key = options.cache_key()
        generation = self.database.generation
        if (
            self.model is not None
            and self.generation == generation
            and self._options_key == key
        ):
            for stage in ANALYSIS_STAGES:
                self._count(stage, hit=True)
                spans.mark_skipped(stage, cache="hit")
            self.last_dirty = frozenset()
            self.last_affected = frozenset()
            return self

        marks = self.database.predicate_marks()
        if self.generation is None or self.callgraph is None:
            # First refresh: everything is dirty by definition.
            dirty = set(marks)
        elif self.generation != generation:
            dirty = {
                indicator
                for indicator in set(marks) | set(self._marks)
                if marks.get(indicator) != self._marks.get(indicator)
            }
        else:
            dirty = set()
        # Callers of removed predicates are found through the *new*
        # call graph (built below); CallGraph.callers keeps undefined
        # callees as nodes, so the closure still reaches them.
        if (
            self.generation != generation
            or self.callgraph is None
            or self._options_key != key
        ):
            with spans.span("declarations", cache="miss"):
                self.declarations = (
                    self._declared or Declarations.from_database(self.database)
                )
            self._count("declarations", hit=False)
            with spans.span("call graph", cache="miss"):
                self.callgraph = CallGraph(self.database)
            self._count("call graph", hit=False)
            with spans.span("fixity", cache="miss"):
                self.fixity = FixityAnalysis(
                    self.database, self.callgraph, self.declarations
                )
            self._count("fixity", hit=False)
            with spans.span("semifixity", cache="miss"):
                self.semifixity = SemifixityAnalysis(
                    self.database, self.callgraph, self.declarations
                )
            self._count("semifixity", hit=False)
            with spans.span("mode inference", cache="miss"):
                self.modes = ModeInference(
                    self.database, self.declarations, self.callgraph
                )
                self.domains = DomainAnalysis(self.database, self.declarations)
            self._count("mode inference", hit=False)
        else:
            for stage in ANALYSIS_STAGES:
                self._count(stage, hit=True)
                spans.mark_skipped(stage, cache="hit")
        # The cost model is cheap to construct and depends on the
        # options (table_all), so it is rebuilt whenever anything moved.
        self.model = CostModel(
            self.database,
            self.declarations,
            self.modes,
            self.domains,
            table_all=options.table_all,
        )
        if self._options_key != key:
            # Different knobs invalidate every build.
            self._builds.clear()
        affected = (
            affected_predicates(self.callgraph, dirty) if dirty else set()
        )
        for indicator in affected:
            self._builds.pop(indicator, None)
        self._marks = marks
        self.generation = generation
        self._options_key = key
        self.last_dirty = frozenset(dirty)
        self.last_affected = frozenset(affected)
        return self

    # -- per-predicate builds ---------------------------------------------

    def build_for(self, indicator: Indicator) -> Optional[CachedPredicateBuild]:
        """The cached build of one predicate (None = must rebuild).
        Counts the consultation."""
        build = self._builds.get(indicator)
        self._count(BUILD_STAGE, hit=build is not None)
        return build

    def store_build(self, indicator: Indicator, build: CachedPredicateBuild) -> None:
        """Remember one freshly built predicate for later replay."""
        self._builds[indicator] = build
