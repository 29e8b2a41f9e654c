"""Shared experiment machinery: call-counting drivers and table layout.

The paper's methodology (§VII): "We called each predicate in each mode,
with one call for each possible instantiation. Therefore, testing mode
(-,-) required one call, modes (-,+) and (+,-) required 55 apiece, and
modes (+,+) required 3025." Costs are *predicate calls* counted by the
engine's instrumentation; reordered programs are queried through their
mode-specialised entry points (as the paper does — the dispatcher "needs
merely to test two tag bits" and is not part of the measured work).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.modes import Mode, ModeItem, parse_mode_string
from ..prolog.database import Database
from ..prolog.engine import Engine
from ..reorder.system import ReorderedProgram
from ..robustness.budget import Budget

__all__ = [
    "Row",
    "Table",
    "mode_queries",
    "count_calls",
    "label_to_mode",
]

Indicator = Tuple[str, int]


@dataclass
class Row:
    """One table row: a predicate/mode with its measured call counts."""

    label: str
    original: int
    reordered: int
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def ratio(self) -> float:
        if self.reordered <= 0:
            return float("inf")
        return self.original / self.reordered


@dataclass
class Table:
    """A formatted experiment table (one per paper table)."""

    title: str
    rows: List[Row]
    note: str = ""

    def format(self) -> str:
        """Render the table in the fixed-width layout of EXPERIMENTS.md."""
        label_width = max(12, max((len(r.label) for r in self.rows), default=12))
        has_best = any("best" in row.extras for row in self.rows)
        lines = [self.title, "=" * len(self.title)]
        header = (
            f"{'predicate & mode':<{label_width}}  {'original':>10}  "
            f"{'reordered':>10}  {'ratio':>7}"
        )
        if has_best:
            header += f"  {'best':>10}"
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            line = (
                f"{row.label:<{label_width}}  {row.original:>10}  "
                f"{row.reordered:>10}  {row.ratio:>7.2f}"
            )
            if has_best:
                best = row.extras.get("best")
                line += f"  {best if best is not None else '-':>10}"
            lines.append(line)
        if self.note:
            lines.append("")
            lines.append(self.note)
        return "\n".join(lines)

    def row(self, label: str) -> Row:
        """The row with the given label (KeyError if absent)."""
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(label)


def label_to_mode(label: str) -> Mode:
    """Mode of a Table III style label: ``pay(-,jane,-)`` → (-,+,-)."""
    inner = label[label.index("(") + 1 : label.rindex(")")]
    return parse_mode_string(
        "".join("-" if part.strip() == "-" else "+" for part in inner.split(","))
    )


def mode_queries(
    name: str, mode: Mode, constants: Sequence[str]
) -> List[str]:
    """Every instantiation of a call in ``mode`` over ``constants``.

    ``(-,-)`` gives one open query; each ``+`` position ranges over all
    constants (so two ``+`` positions give ``len(constants)**2`` calls),
    reproducing the paper's Table II methodology.
    """
    plus_positions = [i for i, item in enumerate(mode) if item is ModeItem.PLUS]
    queries = []
    for combo in itertools.product(constants, repeat=len(plus_positions)):
        arguments = []
        free_counter = 0
        combo_iter = iter(combo)
        for index, item in enumerate(mode):
            if item is ModeItem.PLUS:
                arguments.append(next(combo_iter))
            else:
                arguments.append(f"V{free_counter}")
                free_counter += 1
        queries.append(f"{name}({', '.join(arguments)})")
    return queries


def count_calls(make_engine: Callable[[], Engine], queries: Sequence[str]) -> int:
    """Total predicate calls to answer every query (fresh metrics)."""
    engine = make_engine()
    total = 0
    for query in queries:
        _, metrics = engine.run(query)
        total += metrics.calls
    return total


def best_order_by_enumeration(
    reordered: ReorderedProgram,
    indicator: Indicator,
    mode: Mode,
    constants: Sequence[str],
    combo_limit: int = 48,
    query_limit: int = 64,
) -> Optional[int]:
    """Table II's "cheapest reordering possible" column.

    Exhaustively executes every combination of goal permutations of the
    target predicate's clauses (callees stay at their reordered tuning),
    keeping only combinations whose answer multiset matches, and returns
    the minimum call count — "found by exhaustive enumeration when
    practical": combinations beyond ``combo_limit`` (or query sweeps
    beyond ``query_limit``) return None.
    """
    import itertools as it
    import math

    from ..errors import PrologError
    from ..prolog.database import Clause, body_goals, goals_to_body

    version = reordered.version_name(indicator, mode) or indicator[0]
    version_indicator = (version, indicator[1])
    clauses = reordered.database.clauses(version_indicator)
    if not clauses:
        return None
    goal_lists = [body_goals(clause.body) for clause in clauses]
    combos = math.prod(math.factorial(len(goals)) for goals in goal_lists)
    queries = mode_queries(version, mode, constants)
    if combos > combo_limit or len(queries) > query_limit:
        return None

    def sweep(database: Database):
        engine = Engine(database, budget=Budget(calls=2_000_000))
        total = 0
        keys = []
        for query in queries:
            solutions, metrics = engine.run(query)
            total += metrics.calls
            keys.append(sorted(s.key() for s in solutions))
        return total, keys

    _, reference_keys = sweep(reordered.database)
    best: Optional[int] = None
    for permutation_set in it.product(
        *(it.permutations(range(len(goals))) for goals in goal_lists)
    ):
        candidate = reordered.database.copy()
        new_clauses = [
            Clause(clause.head, goals_to_body([goals[i] for i in order]))
            for clause, goals, order in zip(clauses, goal_lists, permutation_set)
        ]
        candidate.replace_predicate(version_indicator, new_clauses)
        try:
            total, keys = sweep(candidate)
        except PrologError:
            continue  # this order errors at run time: not a valid best
        if keys != reference_keys:
            continue  # changes the answers: not set-equivalent
        if best is None or total < best:
            best = total
    return best
