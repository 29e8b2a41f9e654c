"""Pretty-printer: terms and clauses back to valid Prolog text.

The reordering system is source-to-source, so its output must re-read
under :mod:`repro.prolog.reader`. The writer round-trips everything the
parser accepts, clause by clause: operators are re-emitted in operator
notation with minimal parenthesisation (an operator atom that is itself
an operand is bracketed, ``(-) - a``), lists in ``[a, b | T]``
notation, and atoms, operator names included, are quoted when their
spelling requires it. A clause whose text ends in a symbol character is
terminated with `` .``, since ``+.`` would read as one atom.

Two styles are offered:

* :func:`term_to_string` — one term on one line;
* :func:`clause_to_string` / :func:`program_to_string` — clauses with the
  conventional ``head :-\\n    goal,\\n    goal.`` layout used by the
  paper's Fig. 6/7 listings.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional

from .reader.lexer import SOLO_ATOMS, SYMBOL_CHARS
from .reader.operators import MAX_PRIORITY, OperatorTable, standard_operators
from .terms import (
    Atom,
    Struct,
    Term,
    Var,
    deref,
    is_list_cell,
    is_number,
)

__all__ = [
    "term_to_string",
    "clause_to_string",
    "program_to_string",
    "op_directives",
    "TermWriter",
]

#: Atoms written bare although they are neither names nor symbol runs.
#: ``','`` and ``'|'`` are not among them: bare, they read as punctuation.
_UNQUOTED_SOLO = {"[]", "{}", "!", ";"}


def _atom_needs_quotes(name: str) -> bool:
    if not name:
        return True
    if name in _UNQUOTED_SOLO:
        return False
    first = name[0]
    if first.isalpha() and first.islower() and all(c.isalnum() or c == "_" for c in name):
        return False
    if all(c in SYMBOL_CHARS for c in name):
        # A bare '.' ends a clause, and '/*' opens a comment.
        return name == "." or name.startswith("/*")
    return True


def _quote_atom(name: str) -> str:
    escaped = name.replace("\\", "\\\\").replace("'", "\\'").replace("\n", "\\n")
    return f"'{escaped}'"


@lru_cache(maxsize=4096)
def _atom_text(name: str) -> str:
    """The atom's source spelling, quoted when necessary.

    A pure function of the name, memoized because a program repeats its
    atoms at every occurrence; the cache is bounded because the server
    renders atoms that arrive over the network.
    """
    return _quote_atom(name) if _atom_needs_quotes(name) else name


#: The table a writer reads when given none. Writers never add to it:
#: ``op/3`` directives extend a database's own table instead.
_DEFAULT_OPERATORS = standard_operators()


class TermWriter:
    """Stateful writer: remembers variable display names per clause."""

    def __init__(self, operators: Optional[OperatorTable] = None):
        self.operators = _DEFAULT_OPERATORS if operators is None else operators
        self._var_names: Dict[int, str] = {}
        self._used_names: set = set()

    def _variable_name(self, var: Var) -> str:
        name = self._var_names.get(id(var))
        if name is not None:
            return name
        candidate = var.name if var.name and var.name != "_" else "_"
        if candidate == "_" or not (candidate[0].isupper() or candidate[0] == "_"):
            candidate = f"_{len(self._var_names)}"
        base = candidate
        suffix = 1
        while candidate in self._used_names:
            candidate = f"{base}{suffix}"
            suffix += 1
        self._var_names[id(var)] = candidate
        self._used_names.add(candidate)
        return candidate

    # -- term rendering -------------------------------------------------

    def write(self, term: Term, max_priority: int = MAX_PRIORITY) -> str:
        """Render ``term``, parenthesising if its priority exceeds the bound."""
        term = deref(term)
        if isinstance(term, Var):
            return self._variable_name(term)
        if is_number(term):
            if isinstance(term, int) and term < 0:
                text = str(term)
                return f"({text})" if max_priority < 200 else text
            if isinstance(term, float) and term < 0:
                text = repr(term)
                return f"({text})" if max_priority < 200 else text
            return repr(term) if isinstance(term, float) else str(term)
        if isinstance(term, Atom):
            return _atom_text(term.name)
        assert isinstance(term, Struct)
        if is_list_cell(term):
            return self._write_list(term)
        if term.name == "{}" and term.arity == 1:
            return "{" + self.write(term.args[0], MAX_PRIORITY) + "}"
        rendered = self._write_operator(term, max_priority)
        if rendered is not None:
            return rendered
        args = ", ".join(self.write(a, 999) for a in term.args)
        # '!' and ';' are solo tokens: bare, they never read as a functor.
        name = term.name
        functor = _quote_atom(name) if name in SOLO_ATOMS else _atom_text(name)
        return f"{functor}({args})"

    def _write_list(self, term: Struct) -> str:
        parts: List[str] = []
        current: Term = term
        while True:
            current = deref(current)
            if is_list_cell(current):
                parts.append(self.write(current.args[0], 999))
                current = current.args[1]
                continue
            if isinstance(current, Atom) and current.name == "[]":
                return "[" + ", ".join(parts) + "]"
            return "[" + ", ".join(parts) + " | " + self.write(current, 999) + "]"

    def _operand(self, term: Term, max_priority: int) -> str:
        """Render an operand of an operator. An operator atom there is
        bracketed: bare, the reader could take it for the operator
        itself (``(-) - a`` is not ``- - a``)."""
        term = deref(term)
        if isinstance(term, Atom) and self.operators.is_operator(term.name):
            return "(" + _atom_text(term.name) + ")"
        return self.write(term, max_priority)

    def _write_operator(self, term: Struct, max_priority: int) -> Optional[str]:
        if term.arity == 2:
            definition = self.operators.infix(term.name)
            if definition is None:
                return None
            left = self._operand(term.args[0], definition.left_max)
            right = self._operand(term.args[1], definition.right_max)
            if term.name == ",":
                text = f"{left}, {right}"
            else:
                text = f"{left} {_atom_text(term.name)} {right}"
            if definition.priority > max_priority:
                return f"({text})"
            return text
        if term.arity == 1:
            definition = self.operators.prefix(term.name)
            if definition is None:
                return None
            operand = self._operand(term.args[0], definition.right_max)
            if term.name == "-" and (
                is_number(deref(term.args[0])) or operand[0].isdigit()
            ):
                # '- 1' reads as the integer -1, and '- 2 ** X' as
                # (-2) ** X: a '-' before a number token is a sign.
                return None
            text = f"{_atom_text(term.name)} {operand}"
            if definition.priority > max_priority:
                return f"({text})"
            return text
        return None


def term_to_string(term: Term, operators: Optional[OperatorTable] = None) -> str:
    """Render one term on one line."""
    return TermWriter(operators).write(term)


def clause_to_string(
    clause: Term, operators: Optional[OperatorTable] = None, indent: str = "    "
) -> str:
    """Render a clause with the body laid out one goal per line."""
    writer = TermWriter(operators)
    clause = deref(clause)
    if isinstance(clause, Struct) and clause.name == ":-" and clause.arity == 2:
        head, body = clause.args
        head_text = writer.write(head, 1199)
        goals: List[str] = []
        current = deref(body)
        while isinstance(current, Struct) and current.name == "," and current.arity == 2:
            goals.append(writer.write(current.args[0], 999))
            current = deref(current.args[1])
        goals.append(writer.write(current, 999))
        body_text = (",\n" + indent).join(goals)
        return _end_clause(f"{head_text} :-\n{indent}{body_text}")
    if isinstance(clause, Struct) and clause.name == ":-" and clause.arity == 1:
        return _end_clause(f":- {writer.write(clause.args[0], 1199)}")
    return _end_clause(writer.write(clause, 1199))


def _end_clause(text: str) -> str:
    """Terminate a clause. After a symbol character the end is written
    `` .``: a bare ``.`` would lex as part of a symbol atom (``+.``)."""
    return f"{text} ." if text[-1] in SYMBOL_CHARS else f"{text}."


def program_to_string(
    clauses, operators: Optional[OperatorTable] = None
) -> str:
    """Render a sequence of clause terms as a Prolog program."""
    return "\n".join(clause_to_string(c, operators) for c in clauses) + "\n"


def op_directives(operators: OperatorTable) -> List[str]:
    """One ``:- op(Priority, Type, Name).`` line per definition that
    ``operators`` adds to the standard table, so text written with
    ``operators`` reads back with them."""
    return [
        clause_to_string(
            Struct(":-", (Struct("op", (priority, Atom(kind), Atom(name))),)),
            operators,
        )
        for priority, kind, name in operators.added()
    ]
