"""Engine-facing dispatch: materialization on demand, answers by probe.

:class:`BottomUpDispatcher` sits in the engine's user-predicate
dispatch (before tabling): a call whose stratum is eligible *and*
selected for this strategy is answered by unifying the goal against
the stratum's materialized relation — probing the relation's column
index on the first ground call argument — instead of running SLD
resolution. Everything else returns ``None`` and falls through to the
normal clause-try path, so mixed programs run each stratum on the
backend that suits it.

All derived state (stratification, relations, per-stratum stats) is
guarded by the database's ``generation`` counter: any clause mutation
(a ``serve`` update publishing a new snapshot, a direct
``add_clause``) invalidates it wholesale (the compiled programs and
clause indexes are dropped per edited predicate).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

from ...analysis.callgraph import CallGraph
from ...analysis.stratify import (
    Stratification,
    StratumInfo,
    analyze_clause,
    stratify,
)
from ..terms import Struct, Term, deref, term_is_ground
from ..unify import unify
from .relation import Relation, ground_key
from .rules import compile_rule
from .seminaive import StratumStats, evaluate_component

__all__ = [
    "BackendVerdict",
    "BottomUpDispatcher",
    "Materializer",
    "backend_verdict",
]

Indicator = Tuple[str, int]


class BackendVerdict(NamedTuple):
    """One stratum's evaluator under ``--eval=auto``, and why."""

    #: ``"bottomup"`` or ``"topdown"``.
    backend: str
    #: One-line human-readable justification.
    reason: str


def backend_verdict(info: StratumInfo) -> BackendVerdict:
    """The ``--eval=auto`` rule: an eligible recursive stratum goes
    bottom-up (its materialization is finite, its SLD expansion need
    not be); every other stratum goes top-down. Both the dispatcher
    and the reorder report ask this one function."""
    if not info.eligible:
        return BackendVerdict("topdown", "; ".join(info.reasons))
    if info.recursive:
        return BackendVerdict(
            "bottomup",
            "recursive eligible stratum: materialization bounds re-derivation",
        )
    return BackendVerdict(
        "topdown", "non-recursive eligible stratum: SLD is demand-driven"
    )


class Materializer:
    """Materializes eligible strata (dependencies first) on demand."""

    def __init__(self, database, stratification: Stratification, graph: CallGraph):
        self.database = database
        self.stratification = stratification
        self.graph = graph
        #: Materialized fact relations, shared across strata.
        self.relations: Dict[Indicator, Relation] = {}
        #: Evaluation stats per stratum index (observability).
        self.stats: Dict[int, StratumStats] = {}
        self._done: Set[int] = set()

    def ensure(self, indicator: Indicator, engine) -> Relation:
        """The materialized relation for ``indicator`` (computing it,
        and every stratum it depends on, on first use)."""
        index = self.stratification.stratum_index(indicator)
        assert index is not None
        self._materialize(index, engine)
        return self.relations[indicator]

    def _materialize(self, index: int, engine) -> None:
        if index in self._done:
            return
        self._done.add(index)
        stratum = self.stratification.strata[index]
        members = set(stratum.predicates)
        # Dependencies first (the SCC order guarantees lower indexes,
        # but materialize-on-demand may enter anywhere).
        for indicator in stratum.predicates:
            for callee in self.graph.callees.get(indicator, ()):
                if callee in members:
                    continue
                callee_index = self.stratification.stratum_index(callee)
                if callee_index is not None:
                    self._materialize(callee_index, engine)
        facts: List[Tuple[Indicator, Tuple[Term, ...]]] = []
        rules = []
        for indicator in stratum.predicates:
            for clause in self.database.clauses(indicator):
                info = analyze_clause(clause)
                if info.is_fact:
                    head = deref(clause.head)
                    args = head.args if isinstance(head, Struct) else ()
                    facts.append((indicator, tuple(deref(a) for a in args)))
                else:
                    rules.append(compile_rule(info))
        budget = engine._active_budget
        stats = evaluate_component(
            stratum.predicates,
            facts,
            rules,
            self.relations,
            charge=None if budget is None else budget.charge_step,
        )
        self.stats[index] = stats
        bus = engine.events
        if bus is not None:
            from ...observability.events import StratumEvent

            bus.emit(
                StratumEvent(
                    predicates=tuple(
                        f"{name}/{arity}" for name, arity in stratum.predicates
                    ),
                    backend="bottomup",
                    rounds=stats.rounds,
                    delta_sizes=list(stats.delta_sizes),
                    facts=stats.facts,
                )
            )


class BottomUpDispatcher:
    """Routes eligible strata to the semi-naive backend per strategy.

    ``strategy="bottomup"`` selects every eligible stratum;
    ``"auto"`` follows :func:`backend_verdict`: recursive eligible
    strata go bottom-up, the rest stay with SLD resolution.
    """

    def __init__(self, strategy: str):
        self.strategy = strategy
        self._database = None
        self._generation = -1
        self._stratification: Optional[Stratification] = None
        self._materializer: Optional[Materializer] = None
        self._selected: Dict[Indicator, bool] = {}

    def _refresh(self, database) -> None:
        if (
            database is self._database
            and database.generation == self._generation
        ):
            return
        graph = CallGraph(database)
        self._database = database
        self._generation = database.generation
        self._stratification = stratify(database, graph)
        self._materializer = Materializer(database, self._stratification, graph)
        self._selected = {}

    def selects(self, indicator: Indicator) -> bool:
        """Should calls to ``indicator`` run bottom-up?"""
        cached = self._selected.get(indicator)
        if cached is not None:
            return cached
        info = self._stratification.info(indicator)
        if info is None or not info.eligible:
            selected = False
        elif self.strategy == "bottomup":
            selected = True
        else:
            selected = backend_verdict(info).backend == "bottomup"
        self._selected[indicator] = selected
        return selected

    def solve(self, engine, goal: Term, indicator: Indicator, depth: int):
        """An answer iterator for ``goal``, or None to fall back to SLD."""
        self._refresh(engine.database)
        if not self.selects(indicator):
            return None
        relation = self._materializer.ensure(indicator, engine)
        return self._iterate(engine, goal, relation)

    @staticmethod
    def _iterate(engine, goal: Term, relation: Relation) -> Iterator[None]:
        """Yield once per stored fact unifying with ``goal``.

        Ground call arguments probe the relation's column index (first
        ground column wins); partially instantiated arguments fall back
        to scanning, with real unification doing the filtering. The
        trail mark/undo discipline matches the clause-try loop, and
        each candidate charges one unification so the counters stay
        meaningful under ``--eval=bottomup``.
        """
        goal = deref(goal)
        args = goal.args if isinstance(goal, Struct) else ()
        if not args:
            if len(relation):
                yield
            return
        candidates = None
        for position, arg in enumerate(args):
            arg = deref(arg)
            if term_is_ground(arg):
                candidates = [
                    fact_args
                    for _key, fact_args in relation.probe(
                        position, ground_key(arg)
                    )
                ]
                break
        if candidates is None:
            candidates = relation.tuples()
        trail = engine.trail
        metrics = engine.metrics
        occurs = engine.occurs_check
        budget = engine._active_budget
        for fact_args in candidates:
            if budget is not None:
                budget.charge_step()
            mark = trail.mark()
            matched = True
            for goal_arg, fact_arg in zip(args, fact_args):
                if not unify(goal_arg, fact_arg, trail, occurs):
                    matched = False
                    break
            metrics.record_unification(matched)
            if matched:
                yield
            trail.undo_to(mark)
