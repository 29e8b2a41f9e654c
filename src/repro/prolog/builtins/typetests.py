"""Type-testing builtins (``var/1``, ``atom/1``, ...).

These are the canonical *semifixed* predicates of paper §IV-C: their
success depends entirely on the instantiation state of their argument,
so the reorderer must not move goals that (de)instantiate a tested
variable across them.
"""

from __future__ import annotations

from ..terms import Atom, Struct, Var, deref, is_number, is_proper_list, term_is_ground
from . import builtin


@builtin("var", 1, semifixed=True, det=True)
def _var(engine, args) -> bool:
    """``var(X)`` type test."""
    return isinstance(deref(args[0]), Var)


@builtin("nonvar", 1, semifixed=True, det=True)
def _nonvar(engine, args) -> bool:
    """``nonvar(X)`` type test."""
    return not isinstance(deref(args[0]), Var)


@builtin("atom", 1, semifixed=True, det=True)
def _atom(engine, args) -> bool:
    """``atom(X)`` type test."""
    return isinstance(deref(args[0]), Atom)


@builtin("number", 1, semifixed=True, det=True)
def _number(engine, args) -> bool:
    """``number(X)`` type test."""
    return is_number(deref(args[0]))


@builtin("integer", 1, semifixed=True, det=True)
def _integer(engine, args) -> bool:
    """``integer(X)`` type test."""
    term = deref(args[0])
    return isinstance(term, int) and not isinstance(term, bool)


@builtin("float", 1, semifixed=True, det=True)
def _float(engine, args) -> bool:
    """``float(X)`` type test."""
    return isinstance(deref(args[0]), float)


@builtin("atomic", 1, semifixed=True, det=True)
def _atomic(engine, args) -> bool:
    """``atomic(X)`` type test."""
    term = deref(args[0])
    return isinstance(term, Atom) or is_number(term)


@builtin("compound", 1, semifixed=True, det=True)
def _compound(engine, args) -> bool:
    """``compound(X)`` type test."""
    return isinstance(deref(args[0]), Struct)


@builtin("callable", 1, semifixed=True, det=True)
def _callable(engine, args) -> bool:
    """``callable(X)`` type test."""
    return isinstance(deref(args[0]), (Atom, Struct))


@builtin("is_list", 1, semifixed=True, det=True)
def _is_list(engine, args) -> bool:
    """``is_list(X)`` type test."""
    return is_proper_list(deref(args[0]))


@builtin("ground", 1, semifixed=True, det=True)
def _ground(engine, args) -> bool:
    """``ground(X)`` type test."""
    return term_is_ground(deref(args[0]))
