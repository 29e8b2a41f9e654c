"""The reordering system (paper §III, §VI): restriction analysis, goal
and clause ordering, per-mode specialisation, and the driving facade."""

from .clause_order import ClauseRanking, heads_mutually_exclusive, order_clauses
from .explain import explain_predicate
from .pipeline import AnalysisContext, CachedPredicateBuild
from .goal_search import (
    DEFAULT_EXHAUSTIVE_LIMIT,
    OrderResult,
    astar_search,
    exhaustive_search,
    find_best_order,
)
from .legality import legal_orders, order_is_legal, propagate_order
from .restrictions import Block, BlockPartition, goal_is_mobile, order_constraints, partition_body
from .specialize import (
    build_dispatcher,
    mode_suffix,
    rename_goal,
    specialized_indicator,
    specialized_name,
)
from .system import (
    ModeVersion,
    ReorderOptions,
    ReorderReport,
    ReorderedProgram,
    Reorderer,
)
from .unfold import UnfoldOptions, UnfoldReport, unfold_clause_goal, unfold_program
from .verify import QueryCheck, VerificationReport, verify_reordering

__all__ = [
    "AnalysisContext",
    "Block",
    "BlockPartition",
    "CachedPredicateBuild",
    "ClauseRanking",
    "DEFAULT_EXHAUSTIVE_LIMIT",
    "ModeVersion",
    "OrderResult",
    "QueryCheck",
    "ReorderOptions",
    "ReorderReport",
    "ReorderedProgram",
    "Reorderer",
    "UnfoldOptions",
    "UnfoldReport",
    "VerificationReport",
    "astar_search",
    "build_dispatcher",
    "exhaustive_search",
    "explain_predicate",
    "find_best_order",
    "goal_is_mobile",
    "heads_mutually_exclusive",
    "legal_orders",
    "mode_suffix",
    "order_clauses",
    "order_constraints",
    "order_is_legal",
    "partition_body",
    "propagate_order",
    "rename_goal",
    "specialized_indicator",
    "specialized_name",
    "unfold_clause_goal",
    "unfold_program",
    "verify_reordering",
]
