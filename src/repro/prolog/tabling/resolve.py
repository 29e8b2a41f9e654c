"""Tabled resolution: the variant-table fixpoint driver.

``solve_tabled`` replaces ``Engine._solve_user`` for tabled predicates.
The first call to a new variant becomes the *leader* of an
:class:`~.store.Evaluation`; its producer pass runs the predicate's
clauses with ``_solve_user`` (the bytecode VM on a compiled engine) and
snapshots every solution into the
table (deduplicated by variant key, kept in first-derivation order).
Nested tabled calls inside that pass either

* hit a **complete** table — answers stream straight out;
* hit an **incomplete** table (a back edge, e.g. left recursion) —
  the answers found *so far* stream out, and the consuming producer
  records how many it saw so it is re-run once the table grows;
* **miss** — a new table joins the same evaluation and is produced
  eagerly, bottom-up; if it read no incomplete table it completes
  immediately (the common acyclic case, giving one pass per variant).

The leader then iterates: any table whose recorded consumptions grew is
re-produced, until no table needs another pass (the semi-naive style
worklist — answers grow monotonically, so this is a least fixpoint).
Finally every remaining variant is marked complete.

Stratification: negation as failure may not consume an incomplete
table — ``engine._negation_depth`` is compared against the depth at
which the evaluation started, and a violation raises the typed
:class:`~repro.errors.IncompleteTableError` instead of returning an
unsound answer set.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from ...errors import IncompleteTableError
from ...observability.events import TableEvent
from ...robustness import faults
from ..terms import Term, rename_term, term_is_ground
from ..unify import unify
from .store import Evaluation, Table
from .variant import variant_key

__all__ = ["solve_tabled"]

Indicator = Tuple[str, int]


def solve_tabled(
    engine, goal: Term, indicator: Indicator, depth: int
) -> Iterator[None]:
    """Yield once per answer of a tabled ``goal``, memoizing by variant.

    Dispatch target of ``Engine.solve_goal`` for predicates named in
    ``:- table`` directives (or all user predicates under
    ``table_all``). Left-recursive definitions terminate; answers come
    back in first-derivation order, deduplicated.
    """
    store = engine.tables
    store.sync(engine.database.generation)
    key = variant_key(goal)
    table = store.get(key)
    bus = engine.events

    if table is not None:
        engine.metrics.record_table_hit()
        if bus is not None:
            bus.emit(TableEvent("hit", indicator, len(table.answers)))
        if table.complete:
            yield from _stream_complete(engine, goal, table)
            return
        # Incomplete: a back edge into the active evaluation.
        evaluation = engine._table_evaluation
        if (
            evaluation is not None
            and engine._negation_depth > evaluation.negation_floor
        ):
            raise IncompleteTableError(indicator)
        yield from _stream_live(engine, goal, table)
        return

    engine.metrics.record_table_miss()
    if bus is not None:
        bus.emit(TableEvent("miss", indicator, 0))

    evaluation = engine._table_evaluation
    if evaluation is not None:
        # A new variant inside a running evaluation: produce it eagerly
        # (bottom-up), complete it at once when it saw nothing
        # incomplete, and let the leader's worklist re-run it otherwise.
        table = store.create(key, rename_term(goal, {}), indicator, depth)
        evaluation.variants.append(table)
        _produce(engine, table)
        if not table.consumed:
            _complete(engine, table)
        if table.complete:
            yield from _stream_complete(engine, goal, table)
        else:
            yield from _stream_live(engine, goal, table)
        return

    # Leader: open an evaluation, run the fixpoint, then stream.
    evaluation = Evaluation(engine._negation_depth)
    engine._table_evaluation = evaluation
    table = store.create(key, rename_term(goal, {}), indicator, depth)
    evaluation.variants.append(table)
    try:
        _fixpoint(engine, evaluation)
    except BaseException:
        # Unwind cleanly: half-built tables are unsound; drop them.
        for variant in evaluation.variants:
            if not variant.complete:
                store.discard(variant)
        raise
    finally:
        engine._table_evaluation = None
    yield from _stream_complete(engine, goal, table)


def _fixpoint(engine, evaluation: Evaluation) -> None:
    """Run production passes until no table needs another one, then
    mark every variant of the evaluation complete.

    Budget/deadline checks run once per worklist round (production
    passes inside the round are already charged call-by-call); an
    exhaustion here unwinds through the leader's discard handler, so no
    half-built table survives the abort.
    """
    budget = engine._active_budget
    while True:
        if budget is not None:
            budget.check("tabling.fixpoint")
        pending = [table for table in evaluation.variants if table.needs_pass()]
        if not pending:
            break
        for table in pending:
            _produce(engine, table)
    if faults.ACTIVE is not None:
        faults.ACTIVE.hit("tabling.complete")
    for table in evaluation.variants:
        if not table.complete:
            _complete(engine, table)


def _produce(engine, table: Table) -> None:
    """One production pass: run the predicate's clauses over a fresh
    copy of the canonical goal, snapshotting each new answer."""
    table.passes += 1
    table.consumed.clear()
    engine._table_producing.append(table)
    mark = engine.trail.mark()
    goal = rename_term(table.goal, {})
    bus = engine.events
    try:
        for _ in engine._solve_user(goal, table.indicator, table.depth):
            answer = rename_term(goal, {})
            answer_key = variant_key(answer)
            if answer_key not in table.answer_keys:
                table.answer_keys.add(answer_key)
                table.answers.append(answer)
                table.answers_ground.append(term_is_ground(answer))
                engine.metrics.record_table_answer()
                if bus is not None:
                    bus.emit(
                        TableEvent(
                            "answer_added", table.indicator, len(table.answers)
                        )
                    )
    finally:
        engine.trail.undo_to(mark)
        engine._table_producing.pop()


def _complete(engine, table: Table) -> None:
    """Seal a table: no further answers can ever be added."""
    table.complete = True
    table.consumed.clear()
    engine.metrics.record_table_complete()
    if engine.events is not None:
        engine.events.emit(
            TableEvent("complete", table.indicator, len(table.answers))
        )


def _stream_complete(engine, goal: Term, table: Table) -> Iterator[None]:
    """Yield each stored answer that unifies with the call.

    Ground answers (the common case — tables memoize resolved calls)
    unify against the stored term directly; only answers that still
    contain variables pay a rename per read.
    """
    trail = engine.trail
    occurs = engine.occurs_check
    ground_flags = table.answers_ground
    for index, answer in enumerate(table.answers):
        mark = trail.mark()
        candidate = answer if ground_flags[index] else rename_term(answer, {})
        if unify(goal, candidate, trail, occurs_check=occurs):
            yield
        trail.undo_to(mark)


def _stream_live(engine, goal: Term, table: Table) -> Iterator[None]:
    """Yield answers from a still-growing table, chasing its tail.

    When the stored answers run out before the table is complete, the
    enclosing producer (if any) records how many answers this read saw,
    so the leader's worklist re-runs it after the table grows.
    """
    trail = engine.trail
    index = 0
    while True:
        if index >= len(table.answers):
            if table.complete:
                return
            producing = engine._table_producing
            if producing:
                producing[-1].note_consumption(table, index)
            return
        answer = table.answers[index]
        candidate = (
            answer if table.answers_ground[index] else rename_term(answer, {})
        )
        index += 1
        mark = trail.mark()
        if unify(goal, candidate, trail, occurs_check=engine.occurs_check):
            yield
        trail.undo_to(mark)
