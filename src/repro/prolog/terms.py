"""Prolog term representation.

Terms are the universal data structure of Prolog. This module defines the
four term classes used throughout the reproduction:

* :class:`Atom` — interned symbolic constants (``foo``, ``[]``, ``','``).
* :class:`Var` — logic variables with an in-place binding slot (``ref``)
  that the engine binds and un-binds via a trail (see
  :mod:`repro.prolog.unify`).
* :class:`Struct` — compound terms ``name(arg1, ..., argN)``.
* Python ``int`` and ``float`` — Prolog numbers are represented directly
  by native numbers; no wrapper class is needed.

Lists are ordinary structures built from ``'.'/2`` cells terminated by the
atom ``[]``, exactly as in DEC-10 Prolog. Helper constructors and
destructors (:func:`make_list`, :func:`list_to_python`) are provided.

Design notes
------------
Variables are *mutable*: binding writes the bound term into ``Var.ref``.
This mirrors the structure-sharing representation of real Prolog engines
and makes backtracking cheap (pop the trail, reset ``ref`` to ``None``)
at the price of requiring :func:`deref` before inspecting any term.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Term",
    "Atom",
    "Var",
    "Struct",
    "deref",
    "is_number",
    "is_callable_term",
    "is_list_cell",
    "make_list",
    "list_to_python",
    "iter_list",
    "is_proper_list",
    "term_variables",
    "term_is_ground",
    "rename_term",
    "copy_term",
    "structural_eq",
    "term_ordering_key",
    "functor_indicator",
    "EMPTY_LIST",
    "TRUE",
    "FAIL",
    "CUT",
    "indicator_str",
]


class Atom:
    """An interned Prolog atom.

    Atoms are interned: ``Atom('foo') is Atom('foo')`` always holds, so
    identity comparison is sufficient (and fast) everywhere in the engine.
    Atoms therefore hash and compare by identity: the class defines no
    ``__hash__`` or ``__eq__``, so dict and set lookups keyed by atoms
    make no Python-level call. An atom never equals its name string.
    """

    __slots__ = ("name",)
    _interned: Dict[str, "Atom"] = {}

    def __new__(cls, name: str) -> "Atom":
        atom = cls._interned.get(name)
        if atom is None:
            atom = object.__new__(cls)
            atom.name = name
            cls._interned[name] = atom
        return atom

    def __repr__(self) -> str:
        return f"Atom({self.name!r})"

    def __str__(self) -> str:
        return self.name

    def __getnewargs__(self) -> tuple:
        # Unpickling routes through __new__, so a pickled atom re-interns
        # in the receiving process: identity equality holds there, and
        # dict and set entries keyed by it are found again after the
        # container is rebuilt with the receiving process's hashes.
        return (self.name,)

    def __getstate__(self) -> dict:
        return {}

    def __setstate__(self, state) -> None:
        pass

    # Interning makes copies unnecessary; deepcopy must preserve identity.
    def __copy__(self) -> "Atom":
        return self

    def __deepcopy__(self, memo: dict) -> "Atom":
        return self


class Var:
    """A logic variable.

    ``ref`` is ``None`` while the variable is free, and holds the bound
    term (possibly another variable) once unified. ``name`` is only for
    display; two distinct variables may share a name after renaming.
    """

    __slots__ = ("name", "ref")
    _counter = itertools.count()

    def __init__(self, name: Optional[str] = None):
        if name is None:
            name = f"_G{next(Var._counter)}"
        self.name = name
        self.ref: Optional[Term] = None

    def __repr__(self) -> str:
        if self.ref is None:
            return f"Var({self.name})"
        return f"Var({self.name}={self.ref!r})"

    def __str__(self) -> str:
        target = deref(self)
        if isinstance(target, Var):
            return target.name
        return str(target)


class Struct:
    """A compound term ``name(args...)``.

    ``name`` is a plain string (not an Atom) for cheap comparison and
    hashing of the functor; ``args`` is a tuple of terms.
    """

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Sequence["Term"]):
        if not args:
            raise ValueError(
                f"Struct {name!r} must have at least one argument; use Atom for arity 0"
            )
        self.name = name
        self.args = tuple(args)

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def indicator(self) -> Tuple[str, int]:
        """The predicate indicator ``(name, arity)`` of this term."""
        return (self.name, len(self.args))

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        return f"Struct({self.name!r}, [{inner}])"

    def __str__(self) -> str:
        # Render via the writer so lists and operators look like source
        # Prolog (imported lazily to avoid a module cycle).
        from .writer import term_to_string

        return term_to_string(self)


Term = Union[Atom, Var, Struct, int, float]

#: The empty list atom ``[]``.
EMPTY_LIST = Atom("[]")
#: The atom ``true``.
TRUE = Atom("true")
#: The atom ``fail``.
FAIL = Atom("fail")
#: The cut atom ``!``.
CUT = Atom("!")

#: Functor name of list cells.
LIST_FUNCTOR = "."


def deref(term: Term) -> Term:
    """Follow variable bindings until reaching a free var or non-var term."""
    while isinstance(term, Var) and term.ref is not None:
        term = term.ref
    return term


def is_number(term: Term) -> bool:
    """True when ``term`` is a Prolog number (int or float, not bool)."""
    return isinstance(term, (int, float)) and not isinstance(term, bool)


def is_callable_term(term: Term) -> bool:
    """True when ``term`` can appear as a goal (atom or compound)."""
    return isinstance(term, (Atom, Struct))


def is_list_cell(term: Term) -> bool:
    """True when ``term`` is a ``'.'/2`` list cell."""
    return isinstance(term, Struct) and term.name == LIST_FUNCTOR and term.arity == 2


def make_list(items: Iterable[Term], tail: Term = EMPTY_LIST) -> Term:
    """Build a Prolog list term from ``items``, ending in ``tail``."""
    result = tail
    for item in reversed(list(items)):
        result = Struct(LIST_FUNCTOR, (item, result))
    return result


def iter_list(term: Term) -> Iterator[Term]:
    """Yield the elements of a proper Prolog list.

    Raises ``ValueError`` on improper (open- or non-list-terminated)
    lists, after yielding the proper prefix.
    """
    term = deref(term)
    while is_list_cell(term):
        yield term.args[0]
        term = deref(term.args[1])
    if term is not EMPTY_LIST:
        raise ValueError(f"improper list tail: {term!r}")


def list_to_python(term: Term) -> List[Term]:
    """Convert a proper Prolog list to a Python list of its elements."""
    return list(iter_list(term))


def is_proper_list(term: Term) -> bool:
    """True when ``term`` is a nil-terminated list with no free tail."""
    term = deref(term)
    while is_list_cell(term):
        term = deref(term.args[1])
    return term is EMPTY_LIST


def term_variables(term: Term) -> List[Var]:
    """All distinct free variables in ``term``, in first-occurrence order."""
    seen: Dict[int, Var] = {}
    order: List[Var] = []
    stack = [term]
    while stack:
        current = deref(stack.pop())
        if isinstance(current, Var):
            if id(current) not in seen:
                seen[id(current)] = current
                order.append(current)
        elif isinstance(current, Struct):
            stack.extend(reversed(current.args))
    return order


def term_is_ground(term: Term) -> bool:
    """True when ``term`` contains no free variables."""
    stack = [term]
    while stack:
        current = deref(stack.pop())
        if isinstance(current, Var):
            return False
        if isinstance(current, Struct):
            stack.extend(current.args)
    return True


def rename_term(term: Term, mapping: Dict[int, Var]) -> Term:
    """Copy ``term``, consistently replacing free variables with fresh ones.

    ``mapping`` maps ``id(old_var)`` to the fresh variable, so a sequence
    of calls sharing the same mapping renames consistently across terms
    (e.g. across the head and body of one clause).
    """
    term = deref(term)
    if isinstance(term, Var):
        fresh = mapping.get(id(term))
        if fresh is None:
            fresh = Var(term.name)
            mapping[id(term)] = fresh
        return fresh
    if isinstance(term, Struct):
        return Struct(term.name, tuple(rename_term(a, mapping) for a in term.args))
    return term


def copy_term(term: Term) -> Term:
    """A fresh copy of ``term`` with all free variables renamed apart."""
    return rename_term(term, {})


def structural_eq(left: Term, right: Term) -> bool:
    """Structural equality after dereferencing (Prolog's ``==``)."""
    left, right = deref(left), deref(right)
    if isinstance(left, Var) or isinstance(right, Var):
        return left is right
    if isinstance(left, Atom) or isinstance(right, Atom):
        return left is right
    if is_number(left) or is_number(right):
        return (
            is_number(left)
            and is_number(right)
            and type(left) is type(right)
            and left == right
        )
    if isinstance(left, Struct) and isinstance(right, Struct):
        if left.name != right.name or left.arity != right.arity:
            return False
        return all(structural_eq(a, b) for a, b in zip(left.args, right.args))
    return False


def term_ordering_key(term: Term) -> tuple:
    """A sort key implementing the standard order of terms.

    Standard order: Var < Number < Atom < Struct; variables by identity,
    numbers by value, atoms alphabetically, structs by arity then name
    then arguments left to right.
    """
    term = deref(term)
    if isinstance(term, Var):
        return (0, id(term))
    if is_number(term):
        return (1, float(term), 0 if isinstance(term, float) else 1)
    if isinstance(term, Atom):
        return (2, term.name)
    assert isinstance(term, Struct)
    return (3, term.arity, term.name, tuple(term_ordering_key(a) for a in term.args))


def functor_indicator(term: Term) -> Tuple[str, int]:
    """The ``(name, arity)`` indicator of a callable term."""
    term = deref(term)
    if isinstance(term, Atom):
        return (term.name, 0)
    if isinstance(term, Struct):
        return term.indicator
    raise TypeError(f"not a callable term: {term!r}")


def indicator_str(indicator: Tuple[str, int]) -> str:
    """Render ``(name, arity)`` as the conventional ``name/arity`` string."""
    name, arity = indicator
    return f"{name}/{arity}"
