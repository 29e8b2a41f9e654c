"""The character-at-a-time Prolog lexer, kept as a test-only reference.

This is the scanner :mod:`repro.prolog.reader.lexer` used before it
moved to compiled-regex token runs. ``test_reader_oracle`` runs both
over the same texts and requires identical tokens and errors, apart
from two deliberate differences (see that module): digits that
``int()`` rejects, and ``0'`` at the end of input.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.errors import PrologSyntaxError
from repro.prolog.reader.tokens import Token, TokenType

__all__ = ["Lexer", "reference_tokenize"]

#: Characters that combine into symbolic atoms (``:-``, ``-->``, ``=..``).
SYMBOL_CHARS = set("+-*/\\^<>=~:.?@#&$")

#: Atoms that are always a single token, never combining with neighbours.
SOLO_ATOMS = {"!", ";"}

_PUNCT = set("()[]{},|")


class Lexer:
    """A one-pass tokenizer over a source string."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.column = 1

    # -- low-level cursor helpers -------------------------------------

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.text[index] if index < len(self.text) else ""

    def _advance(self, count: int = 1) -> str:
        taken = self.text[self.pos : self.pos + count]
        for ch in taken:
            if ch == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
        self.pos += count
        return taken

    def _error(self, message: str) -> PrologSyntaxError:
        return PrologSyntaxError(message, self.line, self.column)

    # -- layout ---------------------------------------------------------

    def _skip_layout(self) -> None:
        """Skip whitespace and both comment styles."""
        while self.pos < len(self.text):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "%":
                while self.pos < len(self.text) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                self._advance(2)
                while self.pos < len(self.text):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    self._advance()
                else:
                    raise self._error("unterminated block comment")
            else:
                return

    # -- token scanners ---------------------------------------------------

    def _scan_quoted(self, quote: str) -> str:
        """Scan a quoted atom or string body; cursor is on the open quote."""
        self._advance()
        chars: List[str] = []
        while True:
            if self.pos >= len(self.text):
                raise self._error(f"unterminated {quote} quote")
            ch = self._peek()
            if ch == quote:
                if self._peek(1) == quote:  # doubled quote escape
                    chars.append(quote)
                    self._advance(2)
                    continue
                self._advance()
                return "".join(chars)
            if ch == "\\":
                self._advance()
                esc = self._advance()
                mapping = {
                    "n": "\n",
                    "t": "\t",
                    "r": "\r",
                    "a": "\a",
                    "b": "\b",
                    "f": "\f",
                    "v": "\v",
                    "\\": "\\",
                    "'": "'",
                    '"': '"',
                    "`": "`",
                    "\n": "",  # escaped newline: line continuation
                }
                if esc in mapping:
                    chars.append(mapping[esc])
                else:
                    raise self._error(f"unknown escape \\{esc}")
                continue
            chars.append(self._advance())

    def _scan_number(self) -> Token:
        line, column = self.line, self.column
        start = self.pos
        # 0'c character-code syntax
        if self._peek() == "0" and self._peek(1) == "'":
            self._advance(2)
            if self._peek() == "\\":
                self._advance()
                esc = self._advance()
                mapping = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", "'": "'"}
                if esc not in mapping:
                    raise self._error(f"unknown character escape 0'\\{esc}")
                code = ord(mapping[esc])
            else:
                code = ord(self._advance())
            return Token(TokenType.INTEGER, str(code), line, column)
        while self._peek().isdigit():
            self._advance()
        is_float = False
        if self._peek() == "." and self._peek(1).isdigit():
            is_float = True
            self._advance()
            while self._peek().isdigit():
                self._advance()
        if self._peek() in "eE" and (
            self._peek(1).isdigit()
            or (self._peek(1) in "+-" and self._peek(2).isdigit())
        ):
            is_float = True
            self._advance()
            if self._peek() in "+-":
                self._advance()
            while self._peek().isdigit():
                self._advance()
        text = self.text[start : self.pos]
        kind = TokenType.FLOAT if is_float else TokenType.INTEGER
        return Token(kind, text, line, column)

    def _scan_name(self) -> str:
        start = self.pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        return self.text[start : self.pos]

    def _scan_symbol(self) -> str:
        start = self.pos
        while self._peek() in SYMBOL_CHARS:
            self._advance()
        return self.text[start : self.pos]

    # -- main loop ---------------------------------------------------------

    def tokens(self) -> Iterator[Token]:
        """Yield tokens until EOF (inclusive)."""
        while True:
            self._skip_layout()
            line, column = self.line, self.column
            if self.pos >= len(self.text):
                yield Token(TokenType.EOF, "", line, column)
                return
            ch = self._peek()

            if ch.isdigit():
                yield self._scan_number()
                continue

            if ch == "_" or ch.isalpha():
                name = self._scan_name()
                if ch == "_" or ch.isupper():
                    yield Token(TokenType.VARIABLE, name, line, column)
                else:
                    yield Token(
                        TokenType.ATOM, name, line, column,
                        functor=self._peek() == "(",
                    )
                continue

            if ch == "'":
                name = self._scan_quoted("'")
                yield Token(
                    TokenType.ATOM, name, line, column, functor=self._peek() == "(",
                )
                continue

            if ch == '"':
                body = self._scan_quoted('"')
                yield Token(TokenType.STRING, body, line, column)
                continue

            if ch in SOLO_ATOMS:
                self._advance()
                yield Token(TokenType.ATOM, ch, line, column)
                continue

            if ch in _PUNCT:
                self._advance()
                if ch == "[" and self._peek() == "]":
                    self._advance()
                    yield Token(
                        TokenType.ATOM, "[]", line, column,
                        functor=self._peek() == "(",
                    )
                elif ch == "{" and self._peek() == "}":
                    self._advance()
                    yield Token(
                        TokenType.ATOM, "{}", line, column,
                        functor=self._peek() == "(",
                    )
                else:
                    yield Token(TokenType.PUNCT, ch, line, column)
                continue

            if ch in SYMBOL_CHARS:
                symbol = self._scan_symbol()
                # A lone '.' followed by layout or EOF terminates a clause.
                if symbol == "." and (
                    self.pos >= len(self.text) or self._peek() in " \t\r\n%"
                ):
                    yield Token(TokenType.END, ".", line, column)
                    continue
                yield Token(
                    TokenType.ATOM, symbol, line, column,
                    functor=self._peek() == "(",
                )
                continue

            raise self._error(f"unexpected character {ch!r}")


def reference_tokenize(text: str) -> List[Token]:
    """Tokenize ``text`` with the reference scanner (EOF included)."""
    return list(Lexer(text).tokens())
