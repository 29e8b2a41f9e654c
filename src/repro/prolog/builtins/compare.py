"""Term identity and standard-order comparison builtins."""

from __future__ import annotations

from ..terms import Atom, structural_eq, term_ordering_key
from ..unify import unify
from . import builtin


@builtin("=", 2, det=True)
def _unify(engine, args) -> bool:
    """``X = Y`` — unification."""
    trail = engine.trail
    mark = trail.mark()
    if unify(args[0], args[1], trail, occurs_check=engine.occurs_check):
        return True
    trail.undo_to(mark)
    return False


@builtin("\\=", 2, det=True)
def _not_unify(engine, args) -> bool:
    """``X \\= Y`` — succeeds when X and Y do not unify (leaves no bindings)."""
    trail = engine.trail
    mark = trail.mark()
    unified = unify(args[0], args[1], trail, occurs_check=engine.occurs_check)
    trail.undo_to(mark)
    return not unified


@builtin("==", 2, semifixed=True, det=True)
def _identical(engine, args) -> bool:
    """``X == Y`` — structural identity, no binding."""
    return structural_eq(args[0], args[1])


@builtin("\\==", 2, semifixed=True, det=True)
def _not_identical(engine, args) -> bool:
    """``X \\== Y`` — structural difference, no binding."""
    return not structural_eq(args[0], args[1])


@builtin("@<", 2, semifixed=True, det=True)
def _before(engine, args) -> bool:
    """Standard-order comparison ``X @< Y``."""
    return term_ordering_key(args[0]) < term_ordering_key(args[1])


@builtin("@>", 2, semifixed=True, det=True)
def _after(engine, args) -> bool:
    """Standard-order comparison ``X @> Y``."""
    return term_ordering_key(args[0]) > term_ordering_key(args[1])


@builtin("@=<", 2, semifixed=True, det=True)
def _before_eq(engine, args) -> bool:
    """Standard-order comparison ``X @=< Y``."""
    return not term_ordering_key(args[0]) > term_ordering_key(args[1])


@builtin("@>=", 2, semifixed=True, det=True)
def _after_eq(engine, args) -> bool:
    """Standard-order comparison ``X @>= Y``."""
    return not term_ordering_key(args[0]) < term_ordering_key(args[1])


@builtin("compare", 3, semifixed=True, det=True)
def _compare(engine, args) -> bool:
    """``compare(Order, X, Y)`` — Order is one of ``<``, ``=``, ``>``."""
    left = term_ordering_key(args[1])
    right = term_ordering_key(args[2])
    symbol = Atom("<") if left < right else Atom(">") if left > right else Atom("=")
    return unify(args[0], symbol, engine.trail)
