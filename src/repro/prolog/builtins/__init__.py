"""Builtin predicate registry: one definition per builtin, shared by the
analyses and by both engines.

A builtin is registered in one of two forms:

* **deterministic** (``det=True``) — a plain function ``fn(engine,
  args) -> bool`` for a builtin that succeeds at most once and calls no
  goal. It returns whether it succeeded and leaves bindings only when
  it did. The VM calls it directly; :meth:`Engine.solve_goal
  <repro.prolog.engine.Engine.solve_goal>` runs it through
  :func:`solve_det`, which undoes its bindings when the goal is redone.
  It must be a module-level function: ``VM_DET`` ops carry it, and the
  process serve backend pickles them (functions pickle by import path);
* **generator** — ``fn(engine, args, depth, frame)`` yielding once per
  solution, for builtins that can backtrack or that run goals.

Registration also carries the two flags the static analyses need
(paper §IV):

* ``side_effect`` — the builtin is *fixed*: it cannot be undone by
  backtracking (I/O predicates), so it is immobile and contaminates its
  ancestors;
* ``semifixed`` — the builtin's success depends on the instantiation
  state of its arguments (``var/1``, ``nonvar/1``, negation), so the
  modes of its *culprit* arguments must be preserved by reordering.

The control constructs ``','``, ``';'``, ``'->'`` and ``!`` are handled
directly by the engine (they need the cut frame) and are not in this
registry, but :func:`is_control` knows about them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple

from ..unify import unify

__all__ = [
    "Builtin",
    "BUILTINS",
    "builtin",
    "solve_det",
    "unify_or_undo",
    "lookup",
    "is_builtin",
    "is_control",
    "CONTROL_INDICATORS",
]

Indicator = Tuple[str, int]

#: Constructs the engine interprets structurally rather than via the registry.
CONTROL_INDICATORS = {
    (",", 2),
    (";", 2),
    ("->", 2),
    ("!", 0),
    ("true", 0),
    ("fail", 0),
    ("false", 0),
}


@dataclass(frozen=True)
class Builtin:
    """A registered builtin predicate."""

    name: str
    arity: int
    fn: Callable
    side_effect: bool = False
    semifixed: bool = False
    #: ``fn`` is the deterministic form ``fn(engine, args) -> bool``.
    det: bool = False

    @property
    def indicator(self) -> Indicator:
        return (self.name, self.arity)


BUILTINS: Dict[Indicator, Builtin] = {}


def builtin(
    name: str,
    arity: int,
    side_effect: bool = False,
    semifixed: bool = False,
    det: bool = False,
) -> Callable:
    """Decorator registering a builtin implementation (``det``: the
    deterministic form, see the module docstring)."""

    def decorate(fn: Callable) -> Callable:
        key = (name, arity)
        BUILTINS[key] = Builtin(name, arity, fn, side_effect, semifixed, det)
        return fn

    return decorate


def solve_det(engine, fn: Callable, args) -> Iterator[None]:
    """A deterministic builtin as a one-solution generator: yield when
    ``fn`` succeeds, and undo its bindings when the goal is redone."""
    trail = engine.trail
    mark = trail.mark()
    if fn(engine, args):
        yield
        trail.undo_to(mark)


def unify_or_undo(engine, left, right) -> bool:
    """Unify for a deterministic builtin: on failure, undo the bindings
    the attempt made (``unify`` leaves them), so the builtin binds only
    when it succeeds."""
    trail = engine.trail
    mark = trail.mark()
    if unify(left, right, trail):
        return True
    trail.undo_to(mark)
    return False


def lookup(indicator: Indicator) -> Optional[Builtin]:
    """The registered builtin for an indicator, if any."""
    return BUILTINS.get(indicator)


def is_builtin(indicator: Indicator) -> bool:
    """Is the indicator a builtin or engine-level control construct?"""
    return indicator in BUILTINS or indicator in CONTROL_INDICATORS


def is_control(indicator: Indicator) -> bool:
    """Is the indicator handled structurally by the engine?"""
    return indicator in CONTROL_INDICATORS


# Importing the implementation modules populates the registry.
from . import arith  # noqa: E402,F401
from . import atoms  # noqa: E402,F401
from . import compare  # noqa: E402,F401
from . import control  # noqa: E402,F401
from . import exceptions  # noqa: E402,F401
from . import io  # noqa: E402,F401
from . import lists  # noqa: E402,F401
from . import solutions  # noqa: E402,F401
from . import terms_bi  # noqa: E402,F401
from . import typetests  # noqa: E402,F401
