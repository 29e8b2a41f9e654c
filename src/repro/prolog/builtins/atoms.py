"""Atom/term text builtins and sorting.

``name/2`` is the DEC-10 original; ``atom_codes/2``/``number_codes/2``
are its modern split. ``sort/2``, ``msort/2``, ``keysort/2`` order by
the standard order of terms.
"""

from __future__ import annotations

from typing import List

from ...errors import InstantiationError, TypeErrorProlog
from ..terms import (
    Atom,
    Struct,
    Term,
    Var,
    deref,
    is_number,
    list_to_python,
    make_list,
    term_ordering_key,
)
from ..unify import unify
from . import builtin, unify_or_undo


def _codes_to_text(term: Term, what: str) -> str:
    try:
        items = list_to_python(term)
    except ValueError:
        raise InstantiationError(f"{what}: code list insufficiently instantiated")
    chars = []
    for item in items:
        item = deref(item)
        if not isinstance(item, int):
            raise TypeErrorProlog("character code", item)
        chars.append(chr(item))
    return "".join(chars)


def _text_to_codes(text: str) -> Term:
    return make_list([ord(c) for c in text])


@builtin("atom_codes", 2, det=True)
def _atom_codes(engine, args) -> bool:
    """``atom_codes(Atom, Codes)`` — both directions."""
    first = deref(args[0])
    if isinstance(first, Atom):
        return unify_or_undo(engine, args[1], _text_to_codes(first.name))
    if is_number(first):
        return unify_or_undo(engine, args[1], _text_to_codes(str(first)))
    if isinstance(first, Var):
        text = _codes_to_text(args[1], "atom_codes/2")
        return unify(first, Atom(text), engine.trail)
    raise TypeErrorProlog("atom", first)


@builtin("number_codes", 2, det=True)
def _number_codes(engine, args) -> bool:
    """``number_codes(Number, Codes)`` — both directions."""
    first = deref(args[0])
    if is_number(first):
        text = repr(first) if isinstance(first, float) else str(first)
        return unify_or_undo(engine, args[1], _text_to_codes(text))
    if isinstance(first, Var):
        text = _codes_to_text(args[1], "number_codes/2")
        try:
            value: Term = int(text)
        except ValueError:
            try:
                value = float(text)
            except ValueError:
                raise TypeErrorProlog("number text", text)
        return unify(first, value, engine.trail)
    raise TypeErrorProlog("number", first)


@builtin("name", 2, det=True)
def _name(engine, args) -> bool:
    """``name(AtomOrNumber, Codes)`` — DEC-10: numbers parse as numbers."""
    first = deref(args[0])
    if isinstance(first, Var):
        text = _codes_to_text(args[1], "name/2")
        value: Term
        try:
            value = int(text)
        except ValueError:
            try:
                value = float(text)
            except ValueError:
                value = Atom(text)
        return unify(first, value, engine.trail)
    if isinstance(first, Atom):
        text = first.name
    elif is_number(first):
        text = repr(first) if isinstance(first, float) else str(first)
    else:
        raise TypeErrorProlog("atomic", first)
    return unify_or_undo(engine, args[1], _text_to_codes(text))


@builtin("atom_length", 2, det=True)
def _atom_length(engine, args) -> bool:
    """``atom_length(Atom, Length)``."""
    first = deref(args[0])
    if isinstance(first, Var):
        raise InstantiationError("atom_length/2: first argument unbound")
    if not isinstance(first, Atom):
        raise TypeErrorProlog("atom", first)
    return unify(args[1], len(first.name), engine.trail)


def _sorted_items(term: Term, what: str) -> List[Term]:
    try:
        return list_to_python(term)
    except ValueError:
        raise InstantiationError(f"{what}: list insufficiently instantiated")


@builtin("msort", 2, det=True)
def _msort(engine, args) -> bool:
    """``msort(List, Sorted)`` — standard order, duplicates kept."""
    items = _sorted_items(args[0], "msort/2")
    ordered = sorted(items, key=term_ordering_key)
    return unify_or_undo(engine, args[1], make_list(ordered))


@builtin("sort", 2, det=True)
def _sort(engine, args) -> bool:
    """``sort(List, Sorted)`` — standard order, duplicates removed."""
    items = _sorted_items(args[0], "sort/2")
    unique: List[Term] = []
    seen = set()
    for item in sorted(items, key=term_ordering_key):
        key = term_ordering_key(item)
        if key not in seen:
            seen.add(key)
            unique.append(item)
    return unify_or_undo(engine, args[1], make_list(unique))


@builtin("keysort", 2, det=True)
def _keysort(engine, args) -> bool:
    """``keysort(Pairs, Sorted)`` — stable sort of Key-Value pairs."""
    items = _sorted_items(args[0], "keysort/2")
    for item in items:
        pair = deref(item)
        if not (isinstance(pair, Struct) and pair.indicator == ("-", 2)):
            raise TypeErrorProlog("Key-Value pair", pair)
    ordered = sorted(items, key=lambda p: term_ordering_key(deref(p).args[0]))
    return unify_or_undo(engine, args[1], make_list(ordered))
