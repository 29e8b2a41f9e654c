"""List-related builtins: ``length/2`` and ``between/3``.

Most list predicates (``append/3``, ``member/2``, ...) are deliberately
*not* builtins: the benchmark programs define them in Prolog, as the
paper's examples do, so that the reorderer can analyse and reorder them.
A ready-made Prolog library source is available as :data:`LIST_LIBRARY`
for programs that want the standard definitions.
"""

from __future__ import annotations

from typing import Iterator

from ...errors import InstantiationError, TypeErrorProlog
from ..terms import Var, deref, is_list_cell, make_list
from ..unify import unify
from . import builtin

#: Bound for length/2 open enumeration.
MAX_LIST_LENGTH = 10_000

#: Standard list predicates in Prolog, ready to consult.
LIST_LIBRARY = """
append([], Xs, Xs).
append([X | Xs], Ys, [X | Zs]) :- append(Xs, Ys, Zs).

member(X, [X | _]).
member(X, [_ | Xs]) :- member(X, Xs).

memberchk(X, [Y | Ys]) :- ( X = Y -> true ; memberchk(X, Ys) ).

reverse(Xs, Ys) :- reverse_(Xs, [], Ys).
reverse_([], Acc, Acc).
reverse_([X | Xs], Acc, Ys) :- reverse_(Xs, [X | Acc], Ys).

select(X, [X | Xs], Xs).
select(X, [Y | Xs], [Y | Ys]) :- select(X, Xs, Ys).

permutation(Xs, [X | Ys]) :- select(X, Xs, Zs), permutation(Zs, Ys).
permutation([], []).

last([X], X).
last([_ | Xs], X) :- last(Xs, X).

nth1(1, [X | _], X).
nth1(N, [_ | Xs], X) :- N > 1, N1 is N - 1, nth1(N1, Xs, X).

delete(X, [X | Ys], Ys).
delete(U, [X | Ys], [X | Vs]) :- delete(U, Ys, Vs).
"""


@builtin("length", 2)
def _length(engine, args, depth, frame) -> Iterator[None]:
    """``length(List, N)`` — in any mode; enumerates lists when both free."""
    lst = deref(args[0])
    length_term = deref(args[1])

    # Walk the list spine as far as it is instantiated.
    count = 0
    while is_list_cell(lst):
        count += 1
        lst = deref(lst.args[1])

    if not isinstance(lst, Var):  # proper list (or type error)
        if not (hasattr(lst, "name") and lst.name == "[]"):
            raise TypeErrorProlog("list", lst)
        mark = engine.trail.mark()
        if unify(length_term, count, engine.trail):
            yield
        engine.trail.undo_to(mark)
        return

    # Partial list with variable tail.
    if isinstance(length_term, int):
        if length_term < count:
            return
        extension = make_list([Var() for _ in range(length_term - count)])
        mark = engine.trail.mark()
        if unify(lst, extension, engine.trail):
            yield
        engine.trail.undo_to(mark)
        return
    if not isinstance(length_term, Var):
        raise TypeErrorProlog("integer", length_term)

    # Both open: enumerate lengths count, count+1, ... (bounded by the
    # engine's call budget / depth limit through normal backtracking).
    total = count
    while True:
        extension = make_list([Var() for _ in range(total - count)])
        mark = engine.trail.mark()
        if unify(lst, extension, engine.trail) and unify(
            length_term, total, engine.trail
        ):
            yield
        engine.trail.undo_to(mark)
        total += 1
        if total - count > MAX_LIST_LENGTH:
            raise InstantiationError(
                f"length/2: unbounded enumeration exceeded {MAX_LIST_LENGTH}"
            )


@builtin("between", 3)
def _between(engine, args, depth, frame) -> Iterator[None]:
    """``between(Low, High, X)`` — X ranges over Low..High inclusive."""
    low = deref(args[0])
    high = deref(args[1])
    if not isinstance(low, int) or not isinstance(high, int):
        raise InstantiationError("between/3: bounds must be integers")
    value = deref(args[2])
    if isinstance(value, int):
        if low <= value <= high:
            yield
        return
    if not isinstance(value, Var):
        raise TypeErrorProlog("integer", value)
    for candidate in range(low, high + 1):
        mark = engine.trail.mark()
        if unify(value, candidate, engine.trail):
            yield
        engine.trail.undo_to(mark)
