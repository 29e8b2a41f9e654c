"""The reordering system (paper Fig. 3 and §VI-B-2).

:class:`Reorderer` holds the options and analyses of one reorder and
runs it through :mod:`repro.reorder.pipeline`:

1. read the program and its declarations;
2. run the automatic analyses — call graph, entry points, recursion,
   fixity, semifixity, mode inference, domain estimation — via an
   :class:`~repro.reorder.pipeline.AnalysisContext` that caches them
   (and the per-predicate build results) across runs;
3. working callees-first (reverse topological order over the call
   graph's SCC condensation), reorder every user predicate for every
   legal {+,-} input mode: partition each clause body into blocks,
   search the mobile blocks for the cheapest legal order, reorder the
   clauses by ``p/c``, and rename subgoals to the mode-specialised
   versions of their predicates;
4. emit a new program containing the specialised versions plus a
   ``var/1``-testing dispatcher under each original name, so the result
   is a drop-in replacement for the original.

Everything the system could not infer (undeclared recursive modes,
unknown costs) is reported through ``ReorderedProgram.report.warnings``
— the Fig. 3 requirement that "the system informs the programmer when
it cannot infer properties of the program".

Incremental use: construct the context once, edit the database, and
build a fresh ``Reorderer`` per run::

    context = AnalysisContext(database)
    program = Reorderer(database, context=context).reorder()
    database.replace_predicate(("p", 2), new_clauses)
    program = Reorderer(database, context=context).reorder()   # only
    # p/2's SCC and its callers are recomputed; the rest replays.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..analysis.declarations import Declarations
from ..analysis.modes import Mode
from ..observability.spans import SpanRecorder
from ..prolog.database import Database
from ..robustness.budget import Budget
from .goal_search import SearchCounters
from .pipeline import (
    AnalysisContext,
    ModeVersion,
    ReorderOptions,
    ReorderReport,
    ReorderedProgram,
)
from .pipeline.runner import ReorderPipeline
from .pipeline.types import Indicator

__all__ = [
    "ReorderOptions",
    "ModeVersion",
    "ReorderReport",
    "ReorderedProgram",
    "Reorderer",
]


class Reorderer:
    """Drives the full reordering pipeline over one program.

    The analysis attributes (``declarations``, ``callgraph``,
    ``fixity``, ``semifixity``, ``modes``, ``domains``, ``model``) are
    plain, settable attributes snapshotted from the context at
    construction — ablation harnesses may substitute any of them before
    calling :meth:`reorder` (build caching then disables itself, since
    cached builds were produced by the context's own analyses).
    """

    def __init__(
        self,
        database: Database,
        options: Optional[ReorderOptions] = None,
        declarations: Optional[Declarations] = None,
        spans: Optional[SpanRecorder] = None,
        context: Optional[AnalysisContext] = None,
        budget: Optional[Budget] = None,
    ):
        self.options = options or ReorderOptions()
        #: Whole-run resource budget: deadline expiry or cancellation
        #: aborts the run with a BudgetExceededError (per-predicate
        #: failures degrade instead; see docs/ROBUSTNESS.md).
        self.budget = budget
        #: Pipeline-phase wall-clock telemetry (shared when passed in).
        self.spans = spans if spans is not None else SpanRecorder()
        #: Search-internals telemetry, accumulated across all blocks.
        self.search_counters = SearchCounters()
        if self.options.unfold_rounds > 0:
            from .unfold import UnfoldOptions, unfold_program

            with self.spans.span("unfold", rounds=self.options.unfold_rounds):
                database, unfold_report = unfold_program(
                    database, UnfoldOptions(rounds=self.options.unfold_rounds)
                )
            self.unfold_report = unfold_report
            # Unfolding produced a new database; a caller-supplied
            # context (keyed to the original) cannot serve it.
            context = None
        else:
            self.spans.mark_skipped("unfold")
            self.unfold_report = None
        self.database = database
        if context is None:
            context = AnalysisContext(database, declarations=declarations)
        else:
            if context.database is not database:
                raise ValueError(
                    "AnalysisContext was built for a different database"
                )
            if declarations is not None:
                raise ValueError(
                    "pass declarations through the AnalysisContext, "
                    "not alongside one"
                )
        self.context = context
        context.refresh(self.options, self.spans)
        # Snapshot the analyses as plain attributes (see class docstring).
        self.declarations = context.declarations
        self.callgraph = context.callgraph
        self.fixity = context.fixity
        self.semifixity = context.semifixity
        self.modes = context.modes
        self.domains = context.domains
        self.model = context.model
        self.report = ReorderReport()
        #: (indicator, mode) → final specialised name (after dedup).
        self._version_names: Dict[Tuple[Indicator, Mode], str] = {}

    # -- public API -------------------------------------------------------

    def reorder(self) -> ReorderedProgram:
        """Run the pipeline and return the reordered program."""
        return ReorderPipeline(self).run()

    def _cache_usable(self) -> bool:
        """Build caching is sound only while this facade still runs on
        the context's own analyses (an ablation harness swapping in,
        say, a noisy cost model must not replay builds produced by the
        clean one)."""
        context = self.context
        return (
            self.model is context.model
            and self.modes is context.modes
            and self.fixity is context.fixity
            and self.semifixity is context.semifixity
            and self.domains is context.domains
            and self.declarations is context.declarations
        )
