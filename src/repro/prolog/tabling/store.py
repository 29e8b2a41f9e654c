"""Answer tables and the per-engine table store.

A :class:`Table` holds the memoized answers of one call variant: the
canonical goal (a fresh-variable copy of the first call seen), the
answer list in first-derivation order, and the producer/consumer
bookkeeping the fixpoint driver (:mod:`.resolve`) uses to decide when a
table needs another production pass and when it is complete.

The :class:`TableStore` maps variant keys to tables for one engine. It
remembers the database *generation* it was filled against, so tables
are invalidated wholesale if clauses are added or replaced between
queries (the engine's database is normally static during a query).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..terms import Term

__all__ = ["Table", "Evaluation", "TableStore"]

Indicator = Tuple[str, int]


class Table:
    """The memoized answers of one tabled call variant."""

    __slots__ = (
        "key",
        "goal",
        "indicator",
        "depth",
        "answers",
        "answers_ground",
        "answer_keys",
        "complete",
        "passes",
        "consumed",
    )

    def __init__(self, key: Tuple, goal: Term, indicator: Indicator, depth: int):
        self.key = key
        #: Canonical goal: a copy of the first call, variables fresh.
        self.goal = goal
        self.indicator = indicator
        #: Depth of the creating call — reused for re-production passes.
        self.depth = depth
        #: Answers as resolved goal copies, in first-derivation order.
        self.answers: List[Term] = []
        #: Parallel to :attr:`answers`: True when the answer is ground,
        #: letting consumers unify against the stored term directly
        #: instead of renaming a copy per read (ground terms cannot be
        #: bound into, so sharing them is safe).
        self.answers_ground: List[bool] = []
        self.answer_keys: Set[Tuple] = set()
        self.complete = False
        #: Production passes run so far (0 = never produced).
        self.passes = 0
        #: Tables consumed while incomplete during the latest pass,
        #: mapped to the fewest answers any read of them saw. A later
        #: growth past that count means this table must re-produce.
        self.consumed: Dict["Table", int] = {}

    def needs_pass(self) -> bool:
        """Does this table require a(nother) production pass?

        True before the first pass, and again whenever a table it read
        while incomplete now has more answers than that read saw.
        """
        if self.complete:
            return False
        if self.passes == 0:
            return True
        return any(
            len(source.answers) > seen for source, seen in self.consumed.items()
        )

    def note_consumption(self, source: "Table", seen: int) -> None:
        """Record that this table's producer read ``seen`` answers from
        a then-incomplete ``source`` table."""
        previous = self.consumed.get(source)
        if previous is None or seen < previous:
            self.consumed[source] = seen


class Evaluation:
    """One in-flight fixpoint computation (leader call plus every
    variant table created while it runs)."""

    __slots__ = ("variants", "negation_floor")

    def __init__(self, negation_floor: int):
        #: Tables created during this evaluation, in creation order.
        self.variants: List[Table] = []
        #: ``engine._negation_depth`` when the evaluation started;
        #: consuming an incomplete table at a greater depth means
        #: negation reached *inside* the fixpoint (non-stratified).
        self.negation_floor = negation_floor


class TableStore:
    """All tables of one engine, keyed by canonical call variant."""

    __slots__ = ("tables", "generation")

    def __init__(self) -> None:
        self.tables: Dict[Tuple, Table] = {}
        #: Database generation the tables were computed against.
        self.generation: Optional[int] = None

    def sync(self, generation: int) -> None:
        """Drop every table if the database changed underneath them."""
        if self.generation != generation:
            self.tables.clear()
            self.generation = generation

    def get(self, key: Tuple) -> Optional[Table]:
        """The table for a variant key, or None."""
        return self.tables.get(key)

    def create(
        self, key: Tuple, goal: Term, indicator: Indicator, depth: int
    ) -> Table:
        """Register a fresh, empty table for a new call variant."""
        table = Table(key, goal, indicator, depth)
        self.tables[key] = table
        return table

    def discard(self, table: Table) -> None:
        """Remove a (failed, incomplete) table from the store."""
        self.tables.pop(table.key, None)

    def __len__(self) -> int:
        return len(self.tables)
