"""Token types for the Prolog lexer."""

from __future__ import annotations

from enum import Enum, auto

__all__ = ["TokenType", "Token"]


class TokenType(Enum):
    """Lexical categories of DEC-10-style Prolog."""

    ATOM = auto()          # foo, 'quoted atom', + (symbolic), [] handled separately
    VARIABLE = auto()      # X, _Foo, _
    INTEGER = auto()
    FLOAT = auto()
    STRING = auto()        # "..." — a list of character codes
    PUNCT = auto()         # ( ) [ ] { } , |
    END = auto()           # the clause terminator '.'
    EOF = auto()


class Token:
    """One lexical token with its source position (1-based).

    A plain ``__slots__`` class: the lexer builds one per token, and a
    dataclass costs several times as much to construct.
    """

    __slots__ = ("type", "value", "line", "column", "functor")

    def __init__(
        self,
        type: TokenType,
        value: str,
        line: int,
        column: int,
        functor: bool = False,
    ):
        self.type = type
        self.value = value
        self.line = line
        self.column = column
        #: True when an ATOM token is immediately followed by '(' with no
        #: whitespace — required to distinguish ``f(x)`` from ``f (x)``
        #: and to parse negative numbers vs binary minus.
        self.functor = functor

    def _fields(self):
        return (self.type, self.value, self.line, self.column, self.functor)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Token):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        tag = "functor" if self.functor else self.type.name.lower()
        return f"Token({tag} {self.value!r} @{self.line}:{self.column})"
