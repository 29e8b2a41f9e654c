"""Per-mode specialisation and dispatchers (paper §I-E, §VII).

"We tailor a version of the predicate to each mode, renaming both the
new version and the goals that call it." Version names follow the
paper's convention: terminal letters ``u`` (uninstantiated) and ``i``
(instantiated) per argument — ``aunt_uu``, ``aunt_ui``, ... A ``?``
mode item (possible when a goal's call mode cannot be pinned to
``+``/``-``) maps to no specialised version; such calls go through the
dispatcher instead.

Each specialised predicate keeps a *dispatcher* under the original
name: the nested ``var/1`` if-then-else of §VII ("the Prolog engine
needs merely to test two tag bits"). Calls whose mode is statically
known are renamed to the specialised version directly and never pay
the dispatch.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..analysis.modes import Mode, ModeItem
from ..prolog.database import Clause
from ..prolog.terms import Atom, Struct, Term, Var

__all__ = [
    "mode_suffix",
    "specialized_name",
    "specialized_indicator",
    "rename_goal",
    "build_dispatcher",
]

Indicator = Tuple[str, int]

_SUFFIX = {ModeItem.MINUS: "u", ModeItem.PLUS: "i", ModeItem.ANY: "a"}


def mode_suffix(mode: Mode) -> str:
    """The paper's terminal-letter encoding of a mode (``ui`` etc.)."""
    return "".join(_SUFFIX[item] for item in mode)


def specialized_name(name: str, mode: Mode) -> str:
    """Version name for a predicate tuned to ``mode``."""
    suffix = mode_suffix(mode)
    return f"{name}_{suffix}" if suffix else name


def specialized_indicator(indicator: Indicator, mode: Mode) -> Indicator:
    """Indicator of the version tuned to ``mode``."""
    return (specialized_name(indicator[0], mode), indicator[1])


def rename_goal(goal: Term, target_name: str) -> Term:
    """The same goal calling ``target_name`` instead."""
    if isinstance(goal, Struct):
        return Struct(target_name, goal.args)
    assert isinstance(goal, Atom)
    return Atom(target_name)


def build_dispatcher(
    indicator: Indicator,
    version_names: Dict[Mode, str],
) -> Clause:
    """The ``var/1``-testing dispatcher clause for a predicate.

    ``version_names`` maps each specialised {+,-} mode to the (possibly
    deduplicated) predicate name implementing it. Modes with no version
    (illegal modes) are routed to the version with the fewest mode-item
    mismatches, so a user who calls an undeclared mode gets the original
    program's behaviour (typically a run-time error or a miss) rather
    than a missing-predicate error.
    """
    name, arity = indicator
    arguments = tuple(Var(f"A{i + 1}") for i in range(arity))

    def target(mode: Mode) -> Term:
        chosen = version_names.get(mode)
        if chosen is None:
            chosen = _closest_version(mode, version_names)
        if arity == 0:
            return Atom(chosen)
        return Struct(chosen, arguments)

    def branch(position: int, prefix: Tuple[ModeItem, ...]) -> Term:
        if position == arity:
            return target(prefix)
        test = Struct("var", (arguments[position],))
        free_branch = branch(position + 1, prefix + (ModeItem.MINUS,))
        bound_branch = branch(position + 1, prefix + (ModeItem.PLUS,))
        if _branches_equal(free_branch, bound_branch):
            # Both instantiations route the same way: skip the test
            # ("fewer clauses and tests", §VII).
            return free_branch
        return Struct(
            ";",
            (Struct("->", (test, free_branch)), bound_branch),
        )

    head: Term = Struct(name, arguments) if arity else Atom(name)
    return Clause(head, branch(0, ()))


def _branches_equal(left: Term, right: Term) -> bool:
    """Structural equality of dispatcher branches (same tests, targets)."""
    if isinstance(left, Atom) and isinstance(right, Atom):
        return left is right
    if isinstance(left, Struct) and isinstance(right, Struct):
        if left.indicator != right.indicator:
            return False
        return all(
            (a is b) or _branches_equal(a, b)
            for a, b in zip(left.args, right.args)
        )
    return left is right


def _closest_version(mode: Mode, version_names: Dict[Mode, str]) -> str:
    if not version_names:
        raise ValueError("no specialised versions to dispatch to")

    def mismatches(candidate: Mode) -> int:
        return sum(1 for a, b in zip(candidate, mode) if a is not b)

    best_mode = min(sorted(version_names, key=str), key=mismatches)
    return version_names[best_mode]
