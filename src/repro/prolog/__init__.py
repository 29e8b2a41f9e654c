"""A complete Prolog substrate: reader, terms, unification, database,
and an instrumented depth-first engine.

This package is the execution substrate the paper's experiments run on
(their instrumented C-Prolog 1.5 / SB-Prolog 2.3). The public surface:

>>> from repro.prolog import Engine
>>> engine = Engine.from_source("parent(tom, bob). parent(bob, ann).")
>>> [s["X"].name for s in engine.ask("parent(tom, X)")]
['bob']
"""

from .compile import CompiledClause, compile_clause
from .database import (
    Clause,
    Database,
    body_goals,
    first_arg_key,
    goals_to_body,
    split_clause,
)
from .engine import Engine, Frame, Solution
from .metrics import Metrics
from .reader.operators import OperatorTable, standard_operators
from .reader.parser import Parser, parse_term, parse_terms
from .terms import (
    Atom,
    Struct,
    Term,
    Var,
    copy_term,
    deref,
    functor_indicator,
    indicator_str,
    is_number,
    list_to_python,
    make_list,
    structural_eq,
    term_is_ground,
    term_ordering_key,
    term_variables,
)
from .unify import Trail, unify
from .vm import Machine, disassemble_database, disassemble_predicate, solve_vm
from .writer import clause_to_string, program_to_string, term_to_string

__all__ = [
    "Atom",
    "Clause",
    "CompiledClause",
    "Database",
    "Engine",
    "Frame",
    "Machine",
    "Metrics",
    "OperatorTable",
    "Parser",
    "Solution",
    "Struct",
    "Term",
    "Trail",
    "Var",
    "body_goals",
    "clause_to_string",
    "compile_clause",
    "copy_term",
    "deref",
    "disassemble_database",
    "disassemble_predicate",
    "first_arg_key",
    "functor_indicator",
    "goals_to_body",
    "indicator_str",
    "is_number",
    "list_to_python",
    "make_list",
    "parse_term",
    "parse_terms",
    "program_to_string",
    "solve_vm",
    "split_clause",
    "standard_operators",
    "structural_eq",
    "term_is_ground",
    "term_ordering_key",
    "term_to_string",
    "term_variables",
    "unify",
]
