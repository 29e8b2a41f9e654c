"""Prolog reader: lexer, operator table, and parser."""

from .lexer import tokenize
from .operators import OpDef, OperatorTable, standard_operators
from .parser import Parser, parse_term, parse_terms
from .tokens import Token, TokenType

__all__ = [
    "OpDef",
    "OperatorTable",
    "Parser",
    "Token",
    "TokenType",
    "parse_term",
    "parse_terms",
    "standard_operators",
    "tokenize",
]
