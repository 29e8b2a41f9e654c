"""ISO-style exception handling: ``throw/1`` and ``catch/3``.

``throw(Ball)`` raises a copy of Ball; ``catch(Goal, Catcher,
Recovery)`` runs Goal and, when a ball (or a catchable engine error,
rendered as ``error(Kind, Message)``) unifies with Catcher, undoes
Goal's bindings and runs Recovery. Safety-bound overruns
(:class:`~repro.errors.DepthLimitExceeded` and the whole
:class:`~repro.errors.BudgetExceededError` family: call and step caps,
deadlines, cancellation) are deliberately *not* catchable: they exist
to stop runaway executions, and a program catching them could loop
forever or report a timed-out query as answered.
"""

from __future__ import annotations

from typing import Iterator

from ...errors import (
    BudgetExceededError,
    DepthLimitExceeded,
    InstantiationError,
    PrologError,
    PrologThrow,
    TypeErrorProlog,
)
from ..terms import Atom, Struct, Term, Var, copy_term, deref, is_callable_term
from ..unify import unify
from . import builtin


@builtin("throw", 1)
def _throw(engine, args, depth, frame) -> Iterator[None]:
    """``throw(Ball)`` — raise a copy of Ball toward the nearest catch."""
    ball = deref(args[0])
    if isinstance(ball, Var):
        raise InstantiationError("throw/1: ball unbound")
    raise PrologThrow(copy_term(ball))
    yield  # pragma: no cover - makes this a generator


def _error_ball(error: PrologError) -> Term:
    """Render a catchable engine error as ``error(Kind, Message)``."""
    kind = {
        "InstantiationError": "instantiation_error",
        "TypeErrorProlog": "type_error",
        "ExistenceError": "existence_error",
        "ArithmeticErrorProlog": "evaluation_error",
    }.get(type(error).__name__, "system_error")
    return Struct("error", (Atom(kind), Atom(str(error))))


@builtin("catch", 3)
def _catch(engine, args, depth, frame) -> Iterator[None]:
    """``catch(Goal, Catcher, Recovery)``."""
    goal = deref(args[0])
    if isinstance(goal, Var):
        raise InstantiationError("catch/3: goal unbound")
    if not is_callable_term(goal):
        raise TypeErrorProlog("callable", goal)
    mark = engine.trail.mark()
    try:
        yield from engine.solve_goal(goal, depth, engine.new_frame())
        return
    except (DepthLimitExceeded, BudgetExceededError):
        raise  # safety bounds stay uncatchable
    except PrologThrow as thrown:
        ball = thrown.ball
    except PrologError as error:
        ball = _error_ball(error)
    engine.trail.undo_to(mark)
    if not unify(args[1], ball, engine.trail):
        engine.trail.undo_to(mark)
        raise PrologThrow(ball)
    yield from engine.solve_goal(args[2], depth, engine.new_frame())
    engine.trail.undo_to(mark)
