"""Unification with a binding trail.

The engine binds variables in place (:class:`~repro.prolog.terms.Var`
``.ref``) and records every binding on a :class:`Trail`. Backtracking
undoes bindings by truncating the trail to a saved mark. This is the
classic WAM-style discipline and is what makes generator-based
backtracking cheap.

The occurs check is off by default, matching DEC-10/C-Prolog behaviour
(and the paper's assumption that programs are free of errors); it can be
switched on per-call for the property-based tests.
"""

from __future__ import annotations

from typing import List, Tuple

from .terms import Atom, Struct, Term, Var, deref, is_number

__all__ = ["Trail", "bind", "unify", "occurs_in"]


class Trail:
    """A stack of bound variables, used to undo bindings on backtracking."""

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: List[Var] = []

    def mark(self) -> int:
        """The current trail position; pass to :meth:`undo_to` later."""
        return len(self._entries)

    def push(self, var: Var) -> None:
        """Record a freshly bound variable."""
        self._entries.append(var)

    def undo_to(self, mark: int) -> None:
        """Unbind every variable bound since ``mark``.

        Bulk truncation: one slice walk plus one ``del`` instead of a
        pop-per-binding loop — the backtracking path runs this once per
        abandoned clause attempt, so the constant factor matters.
        """
        entries = self._entries
        if len(entries) > mark:
            for var in entries[mark:]:
                var.ref = None
            del entries[mark:]

    def __len__(self) -> int:
        return len(self._entries)


def bind(var: Var, value: Term, trail: Trail) -> None:
    """Bind a free variable to ``value``, recording it on the trail."""
    var.ref = value
    trail.push(var)


def occurs_in(var: Var, term: Term) -> bool:
    """True when ``var`` occurs (after dereferencing) inside ``term``."""
    stack = [term]
    while stack:
        current = deref(stack.pop())
        if current is var:
            return True
        if isinstance(current, Struct):
            stack.extend(current.args)
    return False


def unify(left: Term, right: Term, trail: Trail, occurs_check: bool = False) -> bool:
    """Unify two terms, binding variables onto ``trail``.

    Returns True on success. On failure, bindings made *during this call*
    are NOT undone automatically — callers are expected to have taken a
    mark beforehand and to undo to it, which they must do anyway when
    backtracking past a successful unification. (The engine follows this
    discipline everywhere.)
    """
    stack: List[Tuple[Term, Term]] = [(left, right)]
    while stack:
        a, b = stack.pop()
        a, b = deref(a), deref(b)
        if a is b:
            continue
        if isinstance(a, Var):
            if occurs_check and occurs_in(a, b):
                return False
            bind(a, b, trail)
            continue
        if isinstance(b, Var):
            if occurs_check and occurs_in(b, a):
                return False
            bind(b, a, trail)
            continue
        if isinstance(a, Atom) or isinstance(b, Atom):
            return False  # distinct atoms, or atom vs number/struct
        if is_number(a) or is_number(b):
            if not (is_number(a) and is_number(b)):
                return False
            # 1 and 1.0 do not unify in standard Prolog.
            if type(a) is not type(b) or a != b:
                return False
            continue
        assert isinstance(a, Struct) and isinstance(b, Struct)
        if a.name != b.name or a.arity != b.arity:
            return False
        stack.extend(zip(a.args, b.args))
    return True
