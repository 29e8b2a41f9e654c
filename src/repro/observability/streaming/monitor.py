"""Continuous drift monitoring: streaming aggregates vs. the model.

The post-hoc :class:`~repro.observability.drift.DriftReporter` compares
one finished run's aggregates against the model. The
:class:`DriftMonitor` is its always-on sibling: it is *fed*
streaming aggregates (from a
:class:`~repro.observability.streaming.recorder.StreamingRecorder`, or
merged from calibration workers) as the program keeps running, folds
each batch into the shared :class:`~repro.markov.stats_store.StatsStore`
observed tier via :meth:`~repro.markov.stats_store.StatsStore.observe`
— keyed by :meth:`Database.predicate_marks()
<repro.prolog.database.Database.predicate_marks>` generation watermarks
so pre-edit behaviour never pollutes post-edit statistics — and emits a
:class:`~repro.observability.events.DriftEvent` whenever a
(predicate, mode) *newly* crosses the drift thresholds. Each event
names the predicate's whole strongly-connected component, so the
incremental reorder pipeline (``AnalysisContext.apply_drift``) can
rebuild exactly the affected recursion group and its callers, nothing
else.

Import this as ``from repro.observability.streaming.monitor import
DriftMonitor`` (same convention as ``drift.py``): the package
``__init__`` cannot re-export it because this module imports the
model/engine layers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ...analysis.callgraph import CallGraph
from ...analysis.declarations import Declarations
from ...analysis.modes import parse_mode_string
from ...analysis.recursion import affected_predicates, recursion_groups
from ...markov.predicate_model import CostModel
from ...markov.stats_store import StatsStore
from ...prolog.database import Database
from ..drift import DriftOptions, compare_estimates
from ..events import DriftEvent, EventBus
from .aggregate import StreamAggregates

__all__ = ["DriftMonitor"]

Indicator = Tuple[str, int]


class DriftMonitor:
    """Watches streaming aggregates and flags model drift as it happens.

    Feed it :class:`StreamAggregates` batches with :meth:`feed`; it
    returns (and optionally emits onto a bus) the
    :class:`~repro.observability.events.DriftEvent` s for pairs that
    newly crossed the thresholds in that batch. Thresholds are the
    same :class:`~repro.observability.drift.DriftOptions` the post-hoc
    reporter uses, so the two surfaces always agree on what counts as
    drift.
    """

    def __init__(
        self,
        database: Database,
        options: Optional[DriftOptions] = None,
        declarations: Optional[Declarations] = None,
        model: Optional[CostModel] = None,
        store: Optional[StatsStore] = None,
        bus: Optional[EventBus] = None,
        decay: float = 0.3,
    ):
        self.database = database
        self.options = options or DriftOptions()
        self.declarations = declarations or Declarations.from_database(database)
        self.model = model or CostModel(database, self.declarations)
        #: The stats store receiving the live observed feed.
        self.store = store if store is not None else StatsStore()
        #: Optional bus to emit :class:`DriftEvent` s onto as well.
        self.bus = bus
        self.decay = decay
        #: Pairs currently over threshold (events fire on entry only).
        self._flagged: Set[Tuple[Indicator, str]] = set()
        #: Callgraph generation the SCC cache was built against.
        self._scc_generation: Optional[int] = None
        self._scc_of: Dict[Indicator, Tuple[str, ...]] = {}

    def _component_of(self, indicator: Indicator) -> Tuple[str, ...]:
        """The predicate's SCC as sorted ``name/arity`` strings (cached
        per database generation)."""
        generation = self.database.generation
        if self._scc_generation != generation:
            self._scc_of = {}
            callgraph = CallGraph(self.database)
            for component in recursion_groups(callgraph):
                names = tuple(
                    sorted(f"{name}/{arity}" for name, arity in component)
                )
                for member in component:
                    self._scc_of[member] = names
            self._scc_generation = generation
        return self._scc_of.get(
            indicator, (f"{indicator[0]}/{indicator[1]}",)
        )

    def feed(self, aggregates: StreamAggregates) -> List[DriftEvent]:
        """Fold one aggregate batch into the store; return new drift.

        Every well-supported (predicate, mode) aggregate of a *defined*
        predicate (builtins are not calibration targets) is observed
        into the stats store under the predicate's current generation
        mark, then compared against the model. A
        :class:`DriftEvent` fires only when a pair crosses from
        in-band to out-of-band — a pair that stays drifted across
        batches does not re-fire, and a pair that returns in-band
        re-arms.
        """
        marks = self.database.predicate_marks()
        events: List[DriftEvent] = []
        for (indicator, mode_text), aggregate in aggregates.items():
            if not self.database.defines(indicator):
                continue
            if aggregate.boxes < self.options.min_invocations:
                continue
            mode = parse_mode_string(mode_text)
            mark = marks.get(indicator, 0)
            blended = self.store.observe(
                (indicator, mode),
                aggregate.as_goal_stats(),
                weight=float(aggregate.boxes),
                mark=mark,
                decay=self.decay,
            )
            predicted = self.model.predicate_stats(indicator, mode)
            ratio, prob_delta, reasons = compare_estimates(
                blended.stats.cost,
                blended.stats.prob,
                predicted,
                self.options,
            )
            pair = (indicator, mode_text)
            if reasons:
                if pair not in self._flagged:
                    self._flagged.add(pair)
                    event = DriftEvent(
                        indicator=indicator,
                        mode=mode_text,
                        cost_ratio=ratio,
                        prob_delta=prob_delta,
                        reasons=reasons,
                        scc=self._component_of(indicator),
                        mark=mark,
                    )
                    events.append(event)
                    if self.bus is not None:
                        self.bus.emit(event)
            else:
                self._flagged.discard(pair)
        return events

    def drifted_predicates(self) -> Set[Indicator]:
        """Predicates currently over threshold (any mode)."""
        return {indicator for indicator, _mode in self._flagged}

    def invalidation(self) -> Set[Indicator]:
        """The rebuild closure of the currently drifted predicates.

        SCC plus transitive callers — the exact set
        ``AnalysisContext.apply_drift`` (and the incremental pipeline's
        own edit-tracking) would invalidate for an edit to the same
        predicates.
        """
        drifted = self.drifted_predicates()
        if not drifted:
            return set()
        return affected_predicates(CallGraph(self.database), drifted)

    def reset(self) -> None:
        """Forget which pairs are currently flagged (all re-arm)."""
        self._flagged.clear()
