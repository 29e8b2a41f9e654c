"""Term construction and inspection: ``functor/3``, ``arg/3``, ``=../2``,
``copy_term/2``.

``functor/3`` is the paper's worked example of a builtin that *demands*
modes (§V-B): called with neither a whole term nor a name+arity it raises
an :class:`~repro.errors.InstantiationError`, exactly as SB-Prolog gives
a run-time error.
"""

from __future__ import annotations

from typing import Iterator

from ...errors import InstantiationError, TypeErrorProlog
from ..terms import (
    Atom,
    Struct,
    Term,
    Var,
    copy_term,
    deref,
    list_to_python,
    make_list,
)
from ..unify import unify
from . import builtin, unify_or_undo


@builtin("functor", 3, det=True)
def _functor(engine, args) -> bool:
    """``functor(Term, Name, Arity)`` — decompose or construct a term."""
    term = deref(args[0])
    if not isinstance(term, Var):
        if isinstance(term, Struct):
            name: Term = Atom(term.name)
            arity = term.arity
        else:  # atom or number
            name, arity = term, 0
        trail = engine.trail
        mark = trail.mark()
        if unify(args[1], name, trail) and unify(args[2], arity, trail):
            return True
        trail.undo_to(mark)
        return False
    name_term, arity_term = deref(args[1]), deref(args[2])
    if isinstance(name_term, Var) or isinstance(arity_term, Var):
        raise InstantiationError("functor/3: insufficiently instantiated")
    if not isinstance(arity_term, int):
        raise TypeErrorProlog("integer", arity_term)
    if arity_term == 0:
        built: Term = name_term
    else:
        if not isinstance(name_term, Atom):
            raise TypeErrorProlog("atom", name_term)
        built = Struct(name_term.name, tuple(Var() for _ in range(arity_term)))
    return unify(term, built, engine.trail)


@builtin("arg", 3)
def _arg(engine, args, depth, frame) -> Iterator[None]:
    """``arg(N, Term, Arg)`` — the Nth argument of a compound term."""
    index = deref(args[0])
    term = deref(args[1])
    if isinstance(term, Var):
        raise InstantiationError("arg/3: second argument unbound")
    if not isinstance(term, Struct):
        raise TypeErrorProlog("compound", term)
    if isinstance(index, Var):
        # Backtrack over all argument positions.
        for position in range(1, term.arity + 1):
            mark = engine.trail.mark()
            if unify(index, position, engine.trail) and unify(
                args[2], term.args[position - 1], engine.trail
            ):
                yield
            engine.trail.undo_to(mark)
        return
    if not isinstance(index, int):
        raise TypeErrorProlog("integer", index)
    if 1 <= index <= term.arity:
        mark = engine.trail.mark()
        if unify(args[2], term.args[index - 1], engine.trail):
            yield
        engine.trail.undo_to(mark)


@builtin("=..", 2, det=True)
def _univ(engine, args) -> bool:
    """``Term =.. List`` — between a term and [Name | Args]."""
    term = deref(args[0])
    if not isinstance(term, Var):
        if isinstance(term, Struct):
            listing = make_list([Atom(term.name), *term.args])
        else:
            listing = make_list([term])
        return unify_or_undo(engine, args[1], listing)
    try:
        items = list_to_python(args[1])
    except ValueError:
        raise InstantiationError("=../2: list insufficiently instantiated")
    if not items:
        raise TypeErrorProlog("non-empty list", args[1])
    functor = deref(items[0])
    if len(items) == 1:
        if isinstance(functor, Var):
            raise InstantiationError("=../2: unbound functor")
        built: Term = functor
    else:
        if not isinstance(functor, Atom):
            raise TypeErrorProlog("atom", functor)
        built = Struct(functor.name, tuple(items[1:]))
    return unify(term, built, engine.trail)


@builtin("copy_term", 2, det=True)
def _copy_term(engine, args) -> bool:
    """``copy_term(Term, Copy)`` — Copy is Term with fresh variables."""
    return unify_or_undo(engine, args[1], copy_term(args[0]))
