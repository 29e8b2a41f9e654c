"""Execution order of the reordering pipeline.

:class:`ReorderPipeline` runs one reorder for the
:class:`~repro.reorder.system.Reorderer` that created it, reading the
options, analyses, report, spans, budget and events from it. Each user
predicate is built callees-first, or replayed from the
:class:`AnalysisContext` when one is attached. Without a context it
performs exactly the operations of the pre-pipeline
``Reorderer.reorder()`` in the same order, so its output is
byte-identical (pinned by ``tests/reorder/golden/``).
"""

from __future__ import annotations

from itertools import islice
from typing import List, Optional, Set, Tuple

from ...analysis.modes import all_input_modes
from ...analysis.recursion import affected_predicates
from ...errors import BudgetExceededError
from ...robustness import faults
from ...robustness.budget import Budget
from .build import VersionBuildPhase
from .context import CachedPredicateBuild
from .phases import (
    ModeEnumerationPhase,
    OutputBuildPhase,
    VersionDedupPhase,
    processing_order,
    select_backends,
    summarize_analyses,
)
from .types import Indicator, ModeVersion, ReorderedProgram

__all__ = ["ReorderPipeline"]


class ReorderPipeline:
    """One run of the pipeline over a Reorderer's program."""

    def __init__(self, reorderer):
        self.reorderer = reorderer
        #: The build cache, or None when this run must build everything
        #: (no context, or an analysis was swapped on the Reorderer).
        self.context = reorderer.context if reorderer._cache_usable() else None
        #: The budget goal search charges: the per-predicate deadline
        #: when ``options.phase_timeout`` is set, else the whole run's.
        self.budget: Optional[Budget] = reorderer.budget
        #: (indicator, mode, stats) cost-model overrides installed so far.
        self.overrides: List[Tuple] = []
        #: Callers of a predicate degraded in this run: their cached
        #: builds call versions that no longer exist, so they rebuild.
        self.stale: Set[Indicator] = set()

    def run(self) -> ReorderedProgram:
        """Build every predicate and return the reordered program.

        Per-predicate failure isolation: any exception out of one
        predicate's build (injected fault, per-predicate deadline, a
        bug in an analysis) rolls back that predicate's side effects
        and degrades it to source order, leaving every other
        predicate's output untouched. Only exhaustion of the
        *whole-run* budget (deadline expiry / cancellation) aborts.
        """
        reorderer = self.reorderer
        if reorderer.budget is not None:
            reorderer.budget.start()
        summarize_analyses(reorderer)
        builds = [self._build(indicator) for indicator in processing_order(reorderer)]
        versions = {
            (version.indicator, version.mode): version
            for build in builds
            for version in build.versions
        }
        output = OutputBuildPhase.run(self, versions)
        select_backends(reorderer)
        # The analyses warn once per memoised question, so a replayed
        # build's warnings reach the report only through its record.
        for build in builds:
            reorderer.report.warnings.extend(build.modes_warnings)
        for build in builds:
            reorderer.report.warnings.extend(build.model_warnings)
        return ReorderedProgram(
            output,
            versions,
            reorderer.report,
            reorderer.database,
            version_names=dict(reorderer._version_names),
        )

    def _build(self, indicator: Indicator) -> CachedPredicateBuild:
        """Replay or build one predicate; degrade it on failure."""
        reorderer = self.reorderer
        if reorderer.budget is not None:
            reorderer.budget.check("phase.build")
        timeout = reorderer.options.phase_timeout
        self.budget = (
            reorderer.budget if timeout is None else Budget(deadline=timeout).start()
        )
        mark = self._mark()
        try:
            if faults.ACTIVE is not None:
                faults.ACTIVE.hit("phase.build")
            use_cache = self.context is not None and indicator not in self.stale
            if use_cache:
                build = self.context.build_for(indicator)
                if build is not None:
                    self._replay(build)
                    return build
            elif indicator in self.stale:
                # Its stats in the cost model may come from a build
                # against the degraded callee's versions.
                self._forget_stats(indicator)
            modes = ModeEnumerationPhase.run(self, indicator)
            versions, specialized = VersionBuildPhase.run(self, indicator, modes)
            if specialized:
                VersionDedupPhase.run(self, indicator, versions)
            build = self._capture(mark, versions)
            if use_cache:
                self.context.store_build(indicator, build)
            return build
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            if self._whole_run_exhausted(exc):
                raise
            return self._degrade(indicator, exc, mark)

    # -- the build ledger --------------------------------------------------

    def _streams(self) -> tuple:
        """Everything a predicate build appends to, in the field order of
        :class:`CachedPredicateBuild`: version-name registrations (an
        insertion-ordered dict), report notes, report warnings, the
        mode-inference and cost-model warning lists, and cost-model
        overrides."""
        reorderer = self.reorderer
        return (
            reorderer._version_names,
            reorderer.report._log,
            reorderer.report.warnings,
            reorderer.modes.warnings,
            reorderer.model.warnings,
            self.overrides,
        )

    def _mark(self) -> Tuple[int, ...]:
        """The length of every stream, taken before a predicate build."""
        return tuple(len(stream) for stream in self._streams())

    def _capture(self, mark, versions: List[ModeVersion]) -> CachedPredicateBuild:
        """What the build since ``mark`` appended to each stream."""
        return CachedPredicateBuild(
            versions,
            *(_tail(stream, start) for stream, start in zip(self._streams(), mark)),
        )

    def _rollback(self, mark) -> None:
        """Undo everything the build since ``mark`` did."""
        reorderer = self.reorderer
        undone = self._capture(mark, [])
        for key, _name in undone.version_names:
            del reorderer._version_names[key]
        decisions = reorderer.report.decisions
        for indicator, mode, _line in reversed(undone.notes):
            notes = decisions[(indicator, mode)]
            notes.pop()
            if not notes:
                del decisions[(indicator, mode)]
        for indicator, mode, _stats in undone.overrides:
            reorderer.model.remove_override(indicator, mode)
        for stream, start in zip(self._streams()[1:], mark[1:]):
            del stream[start:]

    def _replay(self, build: CachedPredicateBuild) -> None:
        """Apply a cached build's side effects as a fresh build would.
        Its analysis warnings are not re-appended: the analyses already
        hold them, and :meth:`run` reports them from the record."""
        reorderer = self.reorderer
        reorderer._version_names.update(build.version_names)
        for indicator, mode, stats in build.overrides:
            reorderer.model.override_stats(indicator, mode, stats)
        self.overrides.extend(build.overrides)
        for indicator, mode, line in build.notes:
            reorderer.report.note(indicator, mode, line)
        reorderer.report.warnings.extend(build.report_warnings)

    # -- failure isolation -------------------------------------------------

    def _whole_run_exhausted(self, exc: Exception) -> bool:
        """Is this exception the *whole-run* budget giving out (which
        must propagate), rather than a per-predicate failure (which
        degrades)?"""
        budget = self.reorderer.budget
        if budget is None or not isinstance(exc, BudgetExceededError):
            return False
        return budget.expired or (
            budget.token is not None and budget.token.cancelled
        )

    def _degrade(
        self, indicator: Indicator, exc: Exception, mark
    ) -> CachedPredicateBuild:
        """Fall back to the predicate's source clauses after a failed
        build: roll back the build's side effects, register a verbatim
        version under the original name (exactly the shape the
        no-legal-modes path emits, so the output builder adds no
        dispatcher), and record the degradation."""
        reorderer = self.reorderer
        self._rollback(mark)
        if self.context is not None:
            # Its cached callers call versions that no longer exist, and
            # the cost model may hold stats of those versions from an
            # earlier run: rebuild the callers against the source
            # clauses, keep them out of the cache, and give the next
            # run a fresh cost model.
            self.stale |= affected_predicates(reorderer.callgraph, {indicator})
            self._forget_stats(indicator)
            self.context.model = None
        reason = f"{type(exc).__name__}: {exc}"
        version = ModeVersion(
            indicator=indicator,
            mode=(),
            name=indicator[0],
            clauses=list(reorderer.database.clauses(indicator)),
            estimate=None,
            original_estimate=None,
        )
        reorderer._version_names[(indicator, ())] = indicator[0]
        reorderer.report.degraded[indicator] = reason
        reorderer.report.warnings.append(
            f"degraded {indicator[0]}/{indicator[1]} to source order: {reason}"
        )
        if reorderer.events is not None:
            from ...observability.events import DegradedEvent

            reorderer.events.emit(
                DegradedEvent(indicator=indicator, phase="build", reason=reason)
            )
        return CachedPredicateBuild([version])

    def _forget_stats(self, indicator: Indicator) -> None:
        """Drop the cost model's stats of every mode of ``indicator``."""
        for mode in all_input_modes(indicator[1]):
            self.reorderer.model.remove_override(indicator, mode)


def _tail(stream, start: int) -> list:
    """The entries appended to a list, or to an insertion-ordered dict
    (as key/value pairs), since it held ``start`` of them."""
    if isinstance(stream, dict):
        return list(islice(reversed(stream.items()), len(stream) - start))[::-1]
    return stream[start:]
