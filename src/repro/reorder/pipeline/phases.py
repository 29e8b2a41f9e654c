"""The whole-program steps of the reordering pipeline, with mode
enumeration and version dedup.

The operation order here is what the golden fixtures in
``tests/reorder/golden/`` pin, so it is load bearing.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ...analysis.modes import Mode
from ...analysis.recursion import recursive_predicates, strongly_connected_components
from ...analysis.stratify import stratify
from ...prolog.bottomup.dispatch import backend_verdict
from ...prolog.database import Clause, Database, body_goals, goals_to_body
from ...prolog.terms import Atom, Struct, Term, deref, indicator_str
from ...prolog.writer import clause_to_string
from ..specialize import build_dispatcher, rename_goal
from .types import Indicator, ModeVersion

__all__ = [
    "ModeEnumerationPhase",
    "OutputBuildPhase",
    "VersionDedupPhase",
    "processing_order",
    "select_backends",
    "summarize_analyses",
]

# ModeEnumerationPhase, VersionDedupPhase and OutputBuildPhase are
# classes only so that ``perfbench/layers.py`` can time their ``run``.


def summarize_analyses(reorderer) -> None:
    """Copy the analysis verdicts (fixed/recursive/semifixed/tabled)
    into the report, before any reordering decisions are made."""
    report, database = reorderer.report, reorderer.database
    report.fixed_predicates = set(reorderer.fixity.fixed_predicates)
    report.recursive_predicates = set(
        recursive_predicates(reorderer.callgraph)
    ) | set(reorderer.declarations.recursive)
    report.semifixed_predicates = {
        indicator
        for indicator in database.predicates()
        if reorderer.semifixity.is_semifixed(indicator)
    }
    report.tabled_predicates = {
        indicator
        for indicator in database.predicates()
        if reorderer.model.is_tabled(indicator)
    }


def processing_order(reorderer) -> List[Indicator]:
    """User predicates, callees before callers (Tarjan emission order
    is reverse topological over the condensation)."""
    components = strongly_connected_components(reorderer.callgraph.callees)
    order: List[Indicator] = []
    for component in components:
        for indicator in sorted(component):
            if reorderer.database.defines(indicator):
                order.append(indicator)
    return order


class ModeEnumerationPhase:
    """Legal {+,-} input modes of one predicate (warning when none
    could be inferred or declared)."""

    @staticmethod
    def run(pipeline, indicator: Indicator) -> List[Mode]:
        reorderer = pipeline.reorderer
        legal = reorderer.modes.legal_input_modes(indicator)
        if not legal:
            reorderer.report.warnings.append(
                f"{indicator_str(indicator)}: no legal {{+,-}} input modes "
                f"inferred or declared; keeping the original definition"
            )
        return legal


class VersionDedupPhase:
    """Merge versions whose clause lists are identical, then name the
    survivors.

    "In many cases, the reorderer produces only one or two distinct
    versions of a predicate" (§VII). The canonical version is the
    first mode producing each clause list; later duplicates are dropped
    and all references rewritten — including self-references inside
    this predicate's own (possibly recursive) clauses.

    Versions arrive with their source heads, and a clause the build
    left alone (every fact) is the source clause object itself, so two
    versions whose clauses are the same objects in the same order are
    equal without printing anything. Only versions whose clauses differ
    as objects are compared as text. Heads are renamed to the version
    names only when more than one version survives; a single survivor
    keeps the original name and skips the dispatcher.
    """

    @staticmethod
    def run(pipeline, indicator: Indicator, versions: List[ModeVersion]) -> None:
        """Deduplicate one predicate's specialised ``versions`` in place."""
        reorderer = pipeline.reorderer
        version_names = reorderer._version_names
        rename_map: Dict[str, str] = {}
        kept: List[ModeVersion] = []
        texts: Dict[int, str] = {}
        # A clause object often recurs across versions (facts in
        # another order), so each one is printed once.
        lines: Dict[int, str] = {}

        def text(version: ModeVersion) -> str:
            shape = texts.get(id(version))
            if shape is None:
                for clause in version.clauses:
                    if id(clause) not in lines:
                        lines[id(clause)] = clause_to_string(clause.to_term())
                shape = texts[id(version)] = "\n".join(
                    lines[id(clause)] for clause in version.clauses
                )
            return shape

        for version in versions:
            canonical = next(
                (
                    other
                    for other in kept
                    if _same_clauses(other.clauses, version.clauses)
                    or text(other) == text(version)
                ),
                None,
            )
            if canonical is None:
                kept.append(version)
                continue
            rename_map[version.name] = canonical.name
            version_names[(indicator, version.mode)] = canonical.name
            reorderer.report.note(
                indicator, version.mode,
                f"identical to version {canonical.name}; merged",
            )
        versions[:] = kept
        if len(kept) == 1:
            # A single distinct version: give it back the original name
            # and skip the dispatcher entirely ("predicates with clauses
            # of one goal cannot be reordered" end up here too).
            only = kept[0]
            rename_map[only.name] = indicator[0]
            only.name = indicator[0]
            for (ind, mode) in list(version_names):
                if ind == indicator:
                    version_names[(ind, mode)] = indicator[0]
        for version in kept:
            renamed = []
            for clause in version.clauses:
                head, body = clause.head, clause.body
                if len(kept) > 1:
                    head = rename_goal(head, version.name)
                if rename_map and not clause.is_fact:
                    body = goals_to_body(
                        _rewrite_goal_names(body_goals(body), rename_map)
                    )
                if head is not clause.head or body is not clause.body:
                    clause = Clause(head, body)
                renamed.append(clause)
            version.clauses = renamed


class OutputBuildPhase:
    """Emit the output database: dispatchers first (they carry the
    original names), then every distinct version's clauses, with
    tabling propagated to the specialised names."""

    @staticmethod
    def run(pipeline, versions: Dict[Tuple[Indicator, Mode], ModeVersion]) -> Database:
        reorderer = pipeline.reorderer
        source = reorderer.database
        output = source.empty_like()
        dispatched: Set[Indicator] = set()
        for (indicator, _mode), version in versions.items():
            if version.name == indicator[0]:
                continue  # in-place version keeps the original name
            if indicator in dispatched:
                continue
            dispatched.add(indicator)
            mode_map = {
                mode: name
                for (ind, mode), name in reorderer._version_names.items()
                if ind == indicator
            }
            with reorderer.spans.span("specialize"):
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
            if version.indicator in source.tabled:
                output.tabled.add(version.version_indicator)
        return output


def select_backends(reorderer) -> None:
    """Record the evaluation backend (top-down SLD or bottom-up
    semi-naive) of every defined predicate, per recursion component.

    This is the reorder-time face of the ``--eval=auto`` dispatcher:
    the program is stratified with :func:`repro.analysis.stratify`,
    and each stratum gets the verdict of
    :func:`~repro.prolog.bottomup.dispatch.backend_verdict`, the rule
    the dispatcher runs: eligible recursive strata go bottom-up, every
    other stratum stays top-down. The verdicts land in
    ``report.backends`` (and the JSONL report's ``backends`` key) so a
    user can see which strata the engine would materialize before ever
    running the program.
    """
    database = reorderer.database
    stratification = stratify(database, reorderer.callgraph)
    for stratum in stratification.strata:
        verdict = backend_verdict(stratum)
        for indicator in stratum.predicates:
            if database.defines(indicator):
                reorderer.report.backends[indicator] = verdict


def _same_clauses(first: List[Clause], second: List[Clause]) -> bool:
    """The same clause objects in the same order?"""
    return len(first) == len(second) and all(
        a is b for a, b in zip(first, second)
    )


def _rewrite_one_name(term: Term, mapping: Dict[str, str]) -> Term:
    term_deref = deref(term)
    if isinstance(term_deref, Struct) and term_deref.name in mapping:
        return Struct(mapping[term_deref.name], term_deref.args)
    if isinstance(term_deref, Atom) and term_deref.name in mapping:
        return Atom(mapping[term_deref.name])
    return term


def _rewrite_goal_names(goals: List[Term], mapping: Dict[str, str]) -> List[Term]:
    return [_rewrite_one_name(goal, mapping) for goal in goals]
