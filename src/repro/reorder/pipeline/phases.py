"""The whole-program phases of the reordering pipeline.

Each phase is a :class:`Phase` object with declared inputs/outputs over
the shared :class:`~repro.reorder.pipeline.runner.PipelineState`. The
bodies are verbatim transplants of the corresponding ``Reorderer``
methods — the cold-path output must stay byte-identical to the
pre-pipeline monolith (asserted against the committed golden fixtures
in ``tests/reorder/golden/``), so the operation *order* here is load
bearing.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ...analysis.modes import Mode, ModeItem
from ...analysis.recursion import recursive_predicates, strongly_connected_components
from ...analysis.stratify import stratify
from ...markov.backend import choose_backend
from ...prolog.database import Clause, Database, body_goals, goals_to_body
from ...prolog.terms import Atom, Struct, Term, deref, indicator_str
from ...prolog.writer import clause_to_string
from ..specialize import build_dispatcher
from .types import Indicator, ModeVersion

__all__ = [
    "Phase",
    "AnalysisSummaryPhase",
    "ProcessingOrderPhase",
    "ModeEnumerationPhase",
    "VersionDedupPhase",
    "OutputBuildPhase",
    "BackendSelectionPhase",
]


class Phase:
    """One stage of the reordering pipeline.

    ``inputs``/``outputs`` declare, as dotted state paths, what the
    phase reads and writes on the shared
    :class:`~repro.reorder.pipeline.runner.PipelineState`; they are
    documentation *and* contract — ``tests/reorder/test_pipeline.py``
    checks the declarations stay truthful enough to reason about
    caching (a phase must not write outside its declared outputs).
    """

    #: Stable phase identifier (also the key in progress/debug output).
    name: str = ""
    #: Dotted state paths read by :meth:`run`.
    inputs: Tuple[str, ...] = ()
    #: Dotted state paths written by :meth:`run`.
    outputs: Tuple[str, ...] = ()

    def run(self, state) -> None:
        """Execute the phase over the shared pipeline state."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Phase {self.name}>"


class AnalysisSummaryPhase(Phase):
    """Copy the analysis verdicts (fixed/recursive/semifixed/tabled)
    into the report, before any reordering decisions are made."""

    name = "analysis summary"
    inputs = (
        "fixity",
        "callgraph",
        "declarations",
        "database",
        "semifixity",
        "model",
    )
    outputs = (
        "report.fixed_predicates",
        "report.recursive_predicates",
        "report.semifixed_predicates",
        "report.tabled_predicates",
    )

    def run(self, state) -> None:
        """Fill the four report predicate sets from the analyses."""
        state.report.fixed_predicates = set(state.fixity.fixed_predicates)
        state.report.recursive_predicates = set(
            recursive_predicates(state.callgraph)
        ) | set(state.declarations.recursive)
        state.report.semifixed_predicates = {
            indicator
            for indicator in state.database.predicates()
            if state.semifixity.is_semifixed(indicator)
        }
        state.report.tabled_predicates = {
            indicator
            for indicator in state.database.predicates()
            if state.model.is_tabled(indicator)
        }


class ProcessingOrderPhase(Phase):
    """User predicates, callees before callers (Tarjan emission order
    is reverse topological over the condensation)."""

    name = "processing order"
    inputs = ("callgraph", "database")
    outputs = ("order",)

    def run(self, state) -> None:
        """Compute ``state.order`` from the call graph's SCCs."""
        components = strongly_connected_components(state.callgraph.callees)
        order: List[Indicator] = []
        for component in components:
            for indicator in sorted(component):
                if state.database.defines(indicator):
                    order.append(indicator)
        state.order = order


class ModeEnumerationPhase(Phase):
    """Legal {+,-} input modes of the current predicate (warning when
    none could be inferred or declared)."""

    name = "mode enumeration"
    inputs = ("current", "modes")
    outputs = ("current_modes", "report.warnings")

    def run(self, state) -> None:
        """Fill ``state.current_modes`` for the current predicate."""
        indicator = state.current
        legal = state.modes.legal_input_modes(indicator)
        if not legal:
            state.report.warnings.append(
                f"{indicator_str(indicator)}: no legal {{+,-}} input modes "
                f"inferred or declared; keeping the original definition"
            )
        state.current_modes = legal


class VersionDedupPhase(Phase):
    """Merge versions whose clause lists are identical.

    "In many cases, the reorderer produces only one or two distinct
    versions of a predicate" (§VII). The canonical version is the
    first mode producing each body; later duplicates are dropped and
    all references rewritten — including self-references inside this
    predicate's own (possibly recursive) clauses.
    """

    name = "version dedup"
    inputs = ("current", "current_versions", "current_specialized")
    outputs = ("current_versions", "version_names", "report.decisions")

    def run(self, state) -> None:
        """Deduplicate ``state.current_versions`` in place (specialised
        predicates only; in-place versions are already singular)."""
        if not state.current_specialized:
            return
        indicator = state.current
        versions = state.current_versions
        by_shape: Dict[str, ModeVersion] = {}
        rename_map: Dict[str, str] = {}
        kept: List[ModeVersion] = []
        # Versions share head arguments and often bodies (every fact's
        # ``true``), so each distinct pair is printed once. The versions
        # keep the terms alive, so their ids stay unique meanwhile.
        lines: Dict[Tuple[int, int], str] = {}

        def line(clause: Clause) -> str:
            head = deref(clause.head)
            key = (id(getattr(head, "args", head)), id(clause.body))
            text = lines.get(key)
            if text is None:
                text = lines[key] = clause_to_string(
                    Clause(_strip_name(head), clause.body).to_term()
                )
            return text

        for version in versions:
            shape = "\n".join(line(c) for c in version.clauses)
            canonical = by_shape.get(shape)
            if canonical is None:
                by_shape[shape] = version
                kept.append(version)
            else:
                rename_map[version.name] = canonical.name
                state.version_names[(indicator, version.mode)] = canonical.name
                state.report.note(
                    indicator, version.mode,
                    f"identical to version {canonical.name}; merged",
                )
        if len(kept) == 1:
            # A single distinct version: give it back the original name
            # and skip the dispatcher entirely ("predicates with clauses
            # of one goal cannot be reordered" end up here too).
            only = kept[0]
            rename_map[only.name] = indicator[0]
            only.name = indicator[0]
            for (ind, mode) in list(state.version_names):
                if ind == indicator:
                    state.version_names[(ind, mode)] = indicator[0]
        if not rename_map:
            return
        for version in kept:
            version.clauses = [
                Clause(
                    _rewrite_one_name(clause.head, rename_map),
                    goals_to_body(
                        _rewrite_goal_names(body_goals(clause.body), rename_map)
                    ),
                )
                for clause in version.clauses
            ]
        versions[:] = kept


class OutputBuildPhase(Phase):
    """Emit the output database: dispatchers first (they carry the
    original names), then every distinct version's clauses, with
    tabling propagated to the specialised names."""

    name = "output build"
    inputs = ("versions", "version_names", "database", "options", "spans")
    outputs = ("output",)

    def run(self, state) -> None:
        """Build ``state.output`` from the collected versions."""
        versions = state.versions
        output = Database(indexing=state.options.indexing)
        output.operators = state.database.operators
        dispatched: Set[Indicator] = set()
        for (indicator, _mode), version in versions.items():
            if version.name == indicator[0]:
                continue  # in-place version keeps the original name
            if indicator in dispatched:
                continue
            dispatched.add(indicator)
            mode_map = {
                mode: name
                for (ind, mode), name in state.version_names.items()
                if ind == indicator
            }
            with state.spans.span("specialize"):
                output.add_clause(build_dispatcher(indicator, mode_map))
        seen_versions: Set[Indicator] = set()
        for version in versions.values():
            if version.version_indicator in seen_versions:
                continue
            seen_versions.add(version.version_indicator)
            for clause in version.clauses:
                output.add_clause(Clause(clause.head, clause.body))
            # A tabled predicate stays tabled under its specialised
            # names, so the emitted program memoizes the same calls.
            if version.indicator in state.database.tabled:
                output.tabled.add(version.version_indicator)
        state.output = output


class BackendSelectionPhase(Phase):
    """Pick the evaluation backend (top-down SLD vs bottom-up
    semi-naive) for every user predicate, per recursion component.

    This is the reorder-time face of the ``--eval=auto`` dispatcher:
    the program is stratified with :func:`repro.analysis.stratify`,
    and each stratum gets a :class:`~repro.markov.backend.BackendChoice`
    verdict — datalog-eligible recursive strata go bottom-up, eligible
    non-recursive strata are decided by comparing the cost model's
    all-free-mode estimate against the materialization bound, and
    everything else stays top-down. The verdicts land in
    ``report.backends`` (and the JSONL report's ``backends`` key) so a
    user can see which strata the engine would materialize before ever
    running the program.
    """

    name = "backend selection"
    inputs = ("database", "callgraph", "model")
    outputs = ("report.backends",)

    def run(self, state) -> None:
        """Stratify the source program and record one verdict per
        defined predicate on ``state.report.backends``."""
        stratification = stratify(state.database, state.callgraph)
        for stratum in stratification.strata:
            for indicator in stratum.predicates:
                if not state.database.defines(indicator):
                    continue
                topdown = None
                if stratum.eligible and not stratum.recursive:
                    mode = (ModeItem.MINUS,) * indicator[1]
                    topdown = state.model.predicate_stats(indicator, mode)
                state.report.backends[indicator] = choose_backend(
                    eligible=stratum.eligible,
                    recursive=stratum.recursive,
                    fact_count=stratum.fact_count,
                    rule_count=stratum.rule_count,
                    topdown=topdown,
                )


def _strip_name(head: Term) -> Term:
    """Replace the head functor with a placeholder for shape comparison."""
    head = deref(head)
    if isinstance(head, Struct):
        return Struct("$head", head.args)
    return Atom("$head")


def _rewrite_one_name(term: Term, mapping: Dict[str, str]) -> Term:
    term_deref = deref(term)
    if isinstance(term_deref, Struct) and term_deref.name in mapping:
        return Struct(mapping[term_deref.name], term_deref.args)
    if isinstance(term_deref, Atom) and term_deref.name in mapping:
        return Atom(mapping[term_deref.name])
    return term


def _rewrite_goal_names(goals: List[Term], mapping: Dict[str, str]) -> List[Term]:
    return [_rewrite_one_name(goal, mapping) for goal in goals]
