"""Tokenizer for DEC-10-style Prolog source.

Handles the full lexical syntax needed by the benchmark programs and the
paper's examples:

* unquoted atoms (``foo_bar``), quoted atoms (``'hello world'`` with
  ``\\`` and ``''`` escapes), symbolic atoms (``:-``, ``\\+``, ``=..``),
  and the solo atoms ``!`` ``;`` ``[]`` ``{}``;
* variables (``X``, ``_foo``, ``_``);
* integers (including ``0'c`` character codes) and floats;
* double-quoted strings (returned as STRING tokens; the parser turns
  them into code lists);
* ``%`` line comments and ``/* ... */`` block comments;
* the clause terminator ``.`` distinguished from ``.`` inside floats and
  from the symbolic-atom ``.`` by the standard "followed by layout"
  rule.

How it scans: one compiled pattern, :data:`_TOKEN`, is matched at the
current position. It skips layout and comments, then matches exactly
one token alternative; the number of the alternative's group
(``match.lastindex``) says which kind of token it is. Whole runs of
name characters (``\\w``: ``str.isalnum`` or ``_``), symbol characters
and digits are taken by that single match. Digits are ``\\d``
(``str.isdecimal``), the characters ``int()`` and ``float()`` accept.
Quoted bodies are read as regex runs between escapes and doubled quotes.

Positions are never tracked per character. The scanner keeps the
offset of the next newline (``str.find``); a token that starts past it
moves the line on, one ``find`` per newline, so the newlines inside a
skipped span or a quoted body are counted in one step each. A token's
column is its offset from the start of its line. An error counts the
newlines before its offset (``str.count`` and ``str.rfind``).
"""

from __future__ import annotations

import re
from typing import Dict, List

from ...errors import PrologSyntaxError
from .tokens import Token, TokenType

__all__ = ["tokenize", "SYMBOL_CHARS", "SOLO_ATOMS"]

#: Characters that combine into symbolic atoms (``:-``, ``-->``, ``=..``).
SYMBOL_CHARS = frozenset("+-*/\\^<>=~:.?@#&$")

#: Atoms that are always a single token, never combining with neighbours.
SOLO_ATOMS = frozenset("!;")

#: Layout, then one token. Each alternative is one group, and nothing
#: inside an alternative captures, so ``lastindex`` names the token kind.
_TOKEN = re.compile(
    r"""
    (?: [ \t\r\n]+ | %[^\n]* | /\*.*?\*/ )*   # layout and comments
    (?:
        ([^\W\d]\w*)                          # 1 name (first char checked below)
      | (\[\]|\{\})                           # 2 the solo atoms [] and {}
      | ([()\[\]{},|])                        # 3 punctuation
      | (\.(?=[ \t\r\n%]|\Z))                 # 4 clause terminator
      | (/\*)                                 # 5 a block comment never closed
      | ([-+*/\\^<>=~:.?@\#&$]+)              # 6 symbol-char run
      | (0')                                  # 7 character code
      | (\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)      # 8 integer or float
      | ([!;])                                # 9 ! and ;
      | (['"])                                # 10 opening quote
      | (\Z)                                  # 11 end of input
      | (.)                                   # 12 anything else
    )
    """,
    re.VERBOSE | re.DOTALL,
)

_NAME, _NIL, _PUNCTUATION, _TERMINATOR, _OPEN_COMMENT, _SYMBOL = 1, 2, 3, 4, 5, 6
_CODE, _NUMBER, _SOLO, _QUOTE, _END_OF_INPUT = 7, 8, 9, 10, 11

#: The run of a quoted body up to its next quote or backslash.
_QUOTED_RUN = {quote: re.compile(rf"[^{quote}\\]*") for quote in "'\""}

_ESCAPES: Dict[str, str] = {
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

_CODE_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", "'": "'"}

# Token types as module globals: an enum member lookup costs more than
# building the token.
_ATOM, _VARIABLE, _PUNCT, _END = (
    TokenType.ATOM, TokenType.VARIABLE, TokenType.PUNCT, TokenType.END
)
_INTEGER, _FLOAT, _STRING = TokenType.INTEGER, TokenType.FLOAT, TokenType.STRING


def _error(message: str, text: str, index: int) -> PrologSyntaxError:
    """A syntax error positioned at ``index`` (clamped to the text)."""
    index = min(index, len(text))
    line = text.count("\n", 0, index) + 1
    return PrologSyntaxError(message, line, index - text.rfind("\n", 0, index))


def _quoted(text: str, pos: int, quote: str):
    """Read a quoted body starting just after its opening quote.

    Returns (body, position after the closing quote).
    """
    run = _QUOTED_RUN[quote].match
    chunks: List[str] = []
    while True:
        end = run(text, pos).end()
        chunks.append(text[pos:end])
        char = text[end : end + 1]
        if char == quote:
            if not text.startswith(quote, end + 1):
                return "".join(chunks), end + 1
            chunks.append(quote)  # doubled quote escape
            pos = end + 2
        elif char == "\\":
            escape = text[end + 1 : end + 2]
            mapped = _ESCAPES.get(escape)
            if mapped is None:
                raise _error(f"unknown escape \\{escape}", text, end + 2)
            chunks.append(mapped)
            pos = end + 2
        else:
            raise _error(f"unterminated {quote} quote", text, len(text))


def _character_code(text: str, pos: int):
    """Read the character after ``0'``; returns (code, position after it)."""
    char = text[pos : pos + 1]
    if char == "\\":
        escape = text[pos + 1 : pos + 2]
        mapped = _CODE_ESCAPES.get(escape)
        if mapped is None:
            raise _error(f"unknown character escape 0'\\{escape}", text, pos + 2)
        return ord(mapped), pos + 2
    if not char:
        raise _error("missing character after 0'", text, pos)
    return ord(char), pos + 1


def tokenize(text: str) -> List[Token]:
    """Tokenize ``text`` fully, returning the token list ending in EOF."""
    tokens: List[Token] = []
    append = tokens.append
    match = _TOKEN.match
    find = text.find
    pos = line_start = 0
    line = 1
    newline = find("\n")
    if newline < 0:
        newline = len(text)
    while True:
        found = match(text, pos)
        kind = found.lastindex
        start = found.start(kind)
        pos = found.end()
        while newline < start:
            line += 1
            line_start = newline + 1
            newline = find("\n", line_start)
            if newline < 0:
                newline = len(text)
        column = start - line_start + 1
        if kind == _NAME:
            first = text[start]
            if first > "\x7f" and not first.isalpha():
                raise PrologSyntaxError(
                    f"unexpected character {first!r}", line, column
                )
            if first == "_" or first.isupper():
                append(Token(_VARIABLE, text[start:pos], line, column))
            else:
                append(Token(_ATOM, text[start:pos], line, column,
                             text[pos : pos + 1] == "("))
        elif kind == _PUNCTUATION:
            append(Token(_PUNCT, text[start], line, column))
        elif kind == _SYMBOL or kind == _NIL:
            append(Token(_ATOM, text[start:pos], line, column, text[pos : pos + 1] == "("))
        elif kind == _TERMINATOR:
            append(Token(_END, ".", line, column))
        elif kind == _NUMBER:
            value = text[start:pos]
            append(Token(_INTEGER if value.isdecimal() else _FLOAT,
                         value, line, column))
        elif kind == _QUOTE:
            quote = text[start]
            value, pos = _quoted(text, pos, quote)
            if quote == "'":
                append(Token(_ATOM, value, line, column, text[pos : pos + 1] == "("))
            else:
                append(Token(_STRING, value, line, column))
        elif kind == _SOLO:
            append(Token(_ATOM, text[start], line, column))
        elif kind == _CODE:
            code, pos = _character_code(text, pos)
            append(Token(_INTEGER, str(code), line, column))
        elif kind == _END_OF_INPUT:
            append(Token(TokenType.EOF, "", line, column))
            return tokens
        elif kind == _OPEN_COMMENT:
            raise _error("unterminated block comment", text, len(text))
        else:
            raise PrologSyntaxError(
                f"unexpected character {text[start]!r}", line, column
            )
