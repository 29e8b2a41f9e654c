"""Operator-precedence parser for DEC-10-style Prolog.

Turns token streams into :mod:`repro.prolog.terms` terms. The entry
points are:

* :func:`parse_term` — one term from a string (no trailing ``.``);
* :func:`parse_terms` — a whole program: a list of clause/directive
  terms, each terminated by ``.``;
* :class:`Parser` — the incremental interface.

Variables are scoped per clause: every occurrence of ``X`` within one
clause is the same :class:`~repro.prolog.terms.Var`; a fresh clause gets
fresh variables. ``_`` is always fresh. The per-clause variable map is
available from :meth:`Parser.last_variable_map` so that tools (the
reorderer's pretty-printer, tests) can recover source names.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ...errors import PrologSyntaxError
from ..terms import Atom, Struct, Term, Var, is_proper_list, list_to_python, make_list
from .lexer import tokenize
from .operators import MAX_PRIORITY, OperatorTable, standard_operators
from .tokens import Token, TokenType

__all__ = ["Parser", "parse_term", "parse_terms"]

#: Priority at which arguments of a compound term / list elements are
#: parsed: just below the priority of ',' so commas separate arguments.
ARG_PRIORITY = 999

# Token types as module globals: an enum member lookup costs more than
# the comparison it feeds.
_ATOM, _VARIABLE, _PUNCT, _END, _EOF = (
    TokenType.ATOM, TokenType.VARIABLE, TokenType.PUNCT, TokenType.END, TokenType.EOF
)
_INTEGER, _FLOAT, _STRING = TokenType.INTEGER, TokenType.FLOAT, TokenType.STRING
#: Token types that always begin a term.
_OPERANDS = (_VARIABLE, _INTEGER, _FLOAT, _STRING)


class Parser:
    """An operator-precedence (Pratt-style) Prolog parser."""

    def __init__(self, text: str, operators: Optional[OperatorTable] = None):
        self.text = text
        #: The token list, read on the first :meth:`read_term` or
        #: :meth:`at_eof` so that lexing counts as reading. It ends in
        #: an EOF token, which :meth:`_next` never moves past.
        self.tokens: Optional[List[Token]] = None
        self.index = 0
        self.operators = operators or standard_operators()
        self._variables: Dict[str, Var] = {}

    # -- token stream helpers ---------------------------------------------

    def _peek(self) -> Token:
        return self.tokens[self.index]

    def _peek_second(self) -> Token:
        """The token after the next one; only called when the next one is
        not EOF."""
        return self.tokens[self.index + 1]

    def _next(self) -> Token:
        token = self.tokens[self.index]
        if token.type is not _EOF:
            self.index += 1
        return token

    def _error(self, message: str, token: Optional[Token] = None) -> PrologSyntaxError:
        token = token or self._peek()
        return PrologSyntaxError(message, token.line, token.column)

    def _expect_punct(self, value: str) -> Token:
        token = self._next()
        if token.type is not _PUNCT or token.value != value:
            raise self._error(f"expected {value!r}, got {token.value!r}", token)
        return token

    def at_eof(self) -> bool:
        """Has the token stream been consumed?"""
        if self.tokens is None:
            self.tokens = tokenize(self.text)
        return self.tokens[self.index].type is _EOF

    def last_variable_map(self) -> Dict[str, Var]:
        """Source-name → Var map of the most recently parsed clause."""
        return dict(self._variables)

    # -- primaries -----------------------------------------------------------

    def _variable(self, token: Token) -> Var:
        if token.value == "_":
            return Var("_")
        var = self._variables.get(token.value)
        if var is None:
            var = Var(token.value)
            self._variables[token.value] = var
        return var

    def _arguments(self) -> List[Term]:
        """Parse ``(arg, ..., arg)`` after a functor token."""
        self._expect_punct("(")
        args = [self._parse(ARG_PRIORITY)]
        while self._peek().type is _PUNCT and self._peek().value == ",":
            self._next()
            args.append(self._parse(ARG_PRIORITY))
        self._expect_punct(")")
        return args

    def _list(self) -> Term:
        """Parse a list after the opening ``[``."""
        if self._peek().type is _PUNCT and self._peek().value == "]":
            self._next()
            return Atom("[]")
        items = [self._parse(ARG_PRIORITY)]
        while self._peek().type is _PUNCT and self._peek().value == ",":
            self._next()
            items.append(self._parse(ARG_PRIORITY))
        tail: Term = Atom("[]")
        if self._peek().type is _PUNCT and self._peek().value == "|":
            self._next()
            tail = self._parse(ARG_PRIORITY)
        self._expect_punct("]")
        return make_list(items, tail)

    def _integer(self, token: Token) -> int:
        try:
            return int(token.value)
        except ValueError:  # more digits than int() converts
            raise self._error(
                f"integer too long ({len(token.value)} digits)", token
            ) from None

    def _primary(self, max_priority: int) -> Tuple[Term, int]:
        """Parse one primary term; returns (term, its priority)."""
        token = self._next()
        kind = token.type
        if kind is _ATOM:
            return self._atom(token, max_priority)
        if kind is _VARIABLE:
            return self._variable(token), 0
        if kind is _INTEGER:
            return self._integer(token), 0
        if kind is _FLOAT:
            return float(token.value), 0
        if kind is _STRING:
            return make_list([ord(c) for c in token.value]), 0

        if kind is _PUNCT:
            if token.value == "(":
                term = self._parse(MAX_PRIORITY)
                self._expect_punct(")")
                return term, 0
            if token.value == "[":
                return self._list(), 0
            if token.value == "{":
                term = self._parse(MAX_PRIORITY)
                self._expect_punct("}")
                return Struct("{}", (term,)), 0
            raise self._error(f"unexpected {token.value!r}", token)

        if kind is _EOF:
            raise self._error("unexpected end of input", token)
        raise self._error("unexpected clause terminator", token)

    def _atom(self, token: Token, max_priority: int) -> Tuple[Term, int]:
        """A primary term that starts with an atom token."""
        name = token.value
        if token.functor:
            return Struct(name, self._arguments()), 0

        prefix_def = self.operators.prefix(name)
        if prefix_def is not None and prefix_def.priority <= max_priority:
            # Negative number literals: '-' immediately before a number.
            if name == "-" and self._peek().type in (_INTEGER, _FLOAT):
                number = self._next()
                if number.type is _INTEGER:
                    return -self._integer(number), 0
                return -float(number.value), 0
            if self._starts_term():
                try:
                    saved = self.index
                    operand = self._parse(prefix_def.right_max)
                    return Struct(name, (operand,)), prefix_def.priority
                except PrologSyntaxError:
                    self.index = saved  # fall through: treat as plain atom
        return Atom(name), (
            self.operators.infix(name).priority  # an operator used as an atom
            if self.operators.is_operator(name) and self.operators.infix(name)
            else 0
        )

    def _starts_term(self) -> bool:
        """Can the next token begin a term? (Prefix-operator lookahead.)"""
        token = self._peek()
        if token.type in _OPERANDS:
            return True
        if token.type is _ATOM:
            # An infix operator cannot begin a term unless also prefix.
            infix = self.operators.infix(token.value)
            prefix = self.operators.prefix(token.value)
            if infix is not None and prefix is None and not token.functor:
                return False
            return True
        if token.type is _PUNCT:
            return token.value in "([{"
        return False

    # -- operator-precedence climbing ---------------------------------------

    def _parse(self, max_priority: int) -> Term:
        left, left_priority = self._primary(max_priority)
        while True:
            token = self._peek()
            if token.type is _PUNCT and token.value == ",":
                definition = self.operators.infix(",")
                assert definition is not None
                if definition.priority > max_priority:
                    return left
                if left_priority > definition.left_max:
                    return left
                self._next()
                right = self._parse(definition.right_max)
                left = Struct(",", (left, right))
                left_priority = definition.priority
                continue
            if token.type is not _ATOM:
                return left
            infix_def = self.operators.infix(token.value)
            if infix_def is not None and infix_def.priority <= max_priority:
                if left_priority <= infix_def.left_max and self._infix_viable():
                    self._next()
                    right = self._parse(infix_def.right_max)
                    left = Struct(token.value, (left, right))
                    left_priority = infix_def.priority
                    continue
            postfix_def = self.operators.postfix(token.value)
            if postfix_def is not None and postfix_def.priority <= max_priority:
                if left_priority <= postfix_def.left_max:
                    self._next()
                    left = Struct(token.value, (left,))
                    left_priority = postfix_def.priority
                    continue
            return left

    def _infix_viable(self) -> bool:
        """True when the token after a would-be infix op can start a term."""
        after = self._peek_second()
        if after.type in _OPERANDS or after.type is _ATOM:
            return True
        if after.type is _PUNCT:
            return after.value in "([{"
        return False

    # -- public API ------------------------------------------------------------

    def read_term(self) -> Optional[Term]:
        """Read one ``.``-terminated clause/directive; None at EOF."""
        if self.at_eof():
            return None
        self._variables = {}
        term = self._parse(MAX_PRIORITY)
        token = self._next()
        if token.type is not _END:
            raise self._error(
                f"expected '.' to end clause, got {token.value!r}", token
            )
        return term

    def _maybe_apply_op_directive(self, term: Term) -> None:
        """Apply a ``:- op(Priority, Type, Names)`` directive, where
        ``Names`` is an atom or a list of atoms, so later clauses in the
        same read parse with the new operators (standard Prolog
        behaviour)."""
        if not (isinstance(term, Struct) and term.indicator == (":-", 1)):
            return
        directive = term.args[0]
        if not (
            isinstance(directive, Struct) and directive.indicator == ("op", 3)
        ):
            return
        priority, op_type, names = directive.args
        if not (isinstance(priority, int) and isinstance(op_type, Atom)):
            return
        for name in list_to_python(names) if is_proper_list(names) else [names]:
            if isinstance(name, Atom):
                try:
                    self.operators.add(priority, op_type.name, name.name)
                except ValueError as error:
                    raise PrologSyntaxError(f"bad op/3 directive: {error}")

    def read_program(self) -> List[Term]:
        """Read clauses until EOF, honouring ``:- op/3`` along the way."""
        clauses = []
        while True:
            term = self.read_term()
            if term is None:
                return clauses
            self._maybe_apply_op_directive(term)
            clauses.append(term)


def parse_term(text: str, operators: Optional[OperatorTable] = None) -> Term:
    """Parse a single term from ``text`` (with or without a final ``.``)."""
    stripped = text.rstrip()
    parser = Parser(stripped, operators)
    tokens = parser.tokens = tokenize(stripped)
    if len(tokens) < 2 or tokens[-2].type is not _END:
        # No final '.' token (a trailing '.' may belong to a symbol
        # atom such as '=..'): read as if " ." followed the text.
        eof = tokens.pop()
        tokens.append(Token(_END, ".", eof.line, eof.column + 1))
        tokens.append(Token(_EOF, "", eof.line, eof.column + 2))
    term = parser.read_term()
    if term is None:
        raise PrologSyntaxError("empty input")
    if not parser.at_eof():
        raise PrologSyntaxError("trailing input after term")
    return term


def parse_terms(text: str, operators: Optional[OperatorTable] = None) -> List[Term]:
    """Parse all ``.``-terminated terms in ``text``."""
    return Parser(text, operators).read_program()
