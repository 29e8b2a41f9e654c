"""The standard DEC-10 Prolog operator table.

Operator-precedence parsing needs, for each atom, its possible prefix and
infix/postfix definitions: a priority (1..1200, lower binds tighter) and
a type that says whether each argument may have priority equal to the
operator's (``y``) or must be strictly lower (``x``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["OpDef", "OperatorTable", "standard_operators", "MAX_PRIORITY"]

#: The maximum operator priority (the priority of ``:-``).
MAX_PRIORITY = 1200


@dataclass(frozen=True)
class OpDef:
    """One operator definition: priority and type (xfx, xfy, yfx, fy, fx, xf, yf).

    The parser reads the derived fields for every operator token, so
    they are computed once, here, rather than as properties.
    """

    priority: int
    type: str
    is_prefix: bool = field(init=False, repr=False, compare=False)
    is_infix: bool = field(init=False, repr=False, compare=False)
    is_postfix: bool = field(init=False, repr=False, compare=False)
    #: Maximum priority allowed for the left argument (infix/postfix).
    left_max: int = field(init=False, repr=False, compare=False)
    #: Maximum priority allowed for the right argument (infix/prefix).
    right_max: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        derived = {
            "is_prefix": self.type in ("fy", "fx"),
            "is_infix": self.type in ("xfx", "xfy", "yfx"),
            "is_postfix": self.type in ("xf", "yf"),
            "left_max": self.priority if self.type in ("yfx", "yf") else self.priority - 1,
            "right_max": self.priority if self.type in ("xfy", "fy") else self.priority - 1,
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)  # frozen dataclass


class OperatorTable:
    """Prefix and infix/postfix operator definitions, keyed by atom name."""

    def __init__(self) -> None:
        self._prefix: Dict[str, OpDef] = {}
        self._infix: Dict[str, OpDef] = {}

    def add(self, priority: int, op_type: str, name: str) -> None:
        """Define an operator, as ``op(Priority, Type, Name)`` would."""
        if not 1 <= priority <= MAX_PRIORITY:
            raise ValueError(f"operator priority out of range: {priority}")
        definition = OpDef(priority, op_type)
        if definition.is_prefix:
            self._prefix[name] = definition
        elif definition.is_infix or definition.is_postfix:
            self._infix[name] = definition
        else:
            raise ValueError(f"unknown operator type: {op_type}")

    def prefix(self, name: str) -> Optional[OpDef]:
        """The prefix definition of an atom, if any."""
        return self._prefix.get(name)

    def infix(self, name: str) -> Optional[OpDef]:
        """The infix definition of an atom, if any."""
        definition = self._infix.get(name)
        return definition if definition is not None and definition.is_infix else None

    def postfix(self, name: str) -> Optional[OpDef]:
        """The postfix definition of an atom, if any."""
        definition = self._infix.get(name)
        return definition if definition is not None and definition.is_postfix else None

    def is_operator(self, name: str) -> bool:
        """Is the atom defined as any kind of operator?"""
        return name in self._prefix or name in self._infix

    def added(self) -> List[Tuple[int, str, str]]:
        """``(priority, type, name)`` of every definition that is not in
        the standard table, prefix ones first, in definition order."""
        return [
            (definition.priority, definition.type, name)
            for table, standard in (
                (self._prefix, _STANDARD._prefix),
                (self._infix, _STANDARD._infix),
            )
            for name, definition in table.items()
            if standard.get(name) != definition
        ]


def _standard_table() -> OperatorTable:
    table = OperatorTable()
    definitions = [
        (1200, "xfx", ":-"),
        (1200, "xfx", "-->"),
        (1200, "fx", ":-"),
        (1200, "fx", "?-"),
        (1150, "fx", "table"),
        (1150, "fx", "dynamic"),
        (1150, "fx", "discontiguous"),
        (1150, "fx", "multifile"),
        (1100, "xfy", ";"),
        (1050, "xfy", "->"),
        (1000, "xfy", ","),
        (900, "fy", "\\+"),
        (700, "xfx", "="),
        (700, "xfx", "\\="),
        (700, "xfx", "=="),
        (700, "xfx", "\\=="),
        (700, "xfx", "@<"),
        (700, "xfx", "@>"),
        (700, "xfx", "@=<"),
        (700, "xfx", "@>="),
        (700, "xfx", "=.."),
        (700, "xfx", "is"),
        (700, "xfx", "=:="),
        (700, "xfx", "=\\="),
        (700, "xfx", "<"),
        (700, "xfx", ">"),
        (700, "xfx", "=<"),
        (700, "xfx", ">="),
        (500, "yfx", "+"),
        (500, "yfx", "-"),
        (500, "yfx", "/\\"),
        (500, "yfx", "\\/"),
        (500, "yfx", "xor"),
        (400, "yfx", "*"),
        (400, "yfx", "/"),
        (400, "yfx", "//"),
        (400, "yfx", "mod"),
        (400, "yfx", "rem"),
        (400, "yfx", "<<"),
        (400, "yfx", ">>"),
        (200, "xfx", "**"),
        (200, "xfy", "^"),
        (200, "fy", "-"),
        (200, "fy", "+"),
        (200, "fy", "\\"),
    ]
    for priority, op_type, name in definitions:
        table.add(priority, op_type, name)
    return table


#: The standard definitions, built once: every database and every
#: default :func:`parse_term` starts from a copy.
_STANDARD = _standard_table()


def standard_operators() -> OperatorTable:
    """The DEC-10 / Edinburgh standard operator table.

    Each call returns a new table, since ``op/3`` directives extend it;
    the frozen definitions are shared with :data:`_STANDARD`.
    """
    table = OperatorTable()
    table._prefix.update(_STANDARD._prefix)
    table._infix.update(_STANDARD._infix)
    return table
