"""The reordering pipeline.

:class:`~repro.reorder.system.Reorderer` holds one reorder's options
and analyses; :mod:`.runner` builds every predicate callees-first with
the functions of :mod:`.build` and :mod:`.phases`, and an
:class:`AnalysisContext` caches analyses and per-predicate builds
across runs. See docs/REORDER_PIPELINE.md.
"""

from .context import ANALYSIS_STAGES, AnalysisContext, CachedPredicateBuild
from .types import ModeVersion, ReorderOptions, ReorderReport, ReorderedProgram

__all__ = [
    "ANALYSIS_STAGES",
    "AnalysisContext",
    "CachedPredicateBuild",
    "ModeVersion",
    "ReorderOptions",
    "ReorderReport",
    "ReorderedProgram",
]
