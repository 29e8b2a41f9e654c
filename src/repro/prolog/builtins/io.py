"""I/O builtins — the paper's archetypal *fixed* (side-effecting)
predicates (§IV-B).

Output goes to the engine's capture buffer (``engine.output``) so tests
and the experiment harness can assert on it; ``engine.echo`` additionally
mirrors to stdout for interactive use. ``read/1`` pops terms from
``engine.input_terms`` (a deque the caller fills), simulating a user at
the terminal; reading from an empty queue returns ``end_of_file``.
"""

from __future__ import annotations

from ...errors import TypeErrorProlog
from ..terms import Atom
from ..writer import term_to_string
from . import builtin, unify_or_undo
from .arith import evaluate


def _emit(engine, text: str) -> None:
    engine.output.append(text)
    if engine.echo:
        print(text, end="")


@builtin("write", 1, side_effect=True, det=True)
def _write(engine, args) -> bool:
    """``write(Term)`` — print Term in operator notation."""
    _emit(engine, term_to_string(args[0]))
    return True


@builtin("print", 1, side_effect=True, det=True)
def _print(engine, args) -> bool:
    """``print(Term)`` — identical to ``write/1`` here (no portray hook)."""
    _emit(engine, term_to_string(args[0]))
    return True


@builtin("writeln", 1, side_effect=True, det=True)
def _writeln(engine, args) -> bool:
    """``writeln(Term)`` — write then newline."""
    _emit(engine, term_to_string(args[0]) + "\n")
    return True


@builtin("nl", 0, side_effect=True, det=True)
def _nl(engine, args) -> bool:
    """``nl`` — write a newline."""
    _emit(engine, "\n")
    return True


@builtin("tab", 1, side_effect=True, det=True)
def _tab(engine, args) -> bool:
    """``tab(N)`` — write N spaces."""
    count = evaluate(args[0])
    if not isinstance(count, int) or count < 0:
        raise TypeErrorProlog("non-negative integer", count)
    _emit(engine, " " * count)
    return True


@builtin("put", 1, side_effect=True, det=True)
def _put(engine, args) -> bool:
    """``put(Code)`` — write the character with the given code."""
    code = evaluate(args[0])
    if not isinstance(code, int):
        raise TypeErrorProlog("character code", code)
    _emit(engine, chr(code))
    return True


@builtin("read", 1, side_effect=True, det=True)
def _read(engine, args) -> bool:
    """``read(Term)`` — pop the next term from the engine's input queue."""
    if engine.input_terms:
        term = engine.input_terms.popleft()
    else:
        term = Atom("end_of_file")
    return unify_or_undo(engine, args[0], term)


@builtin("get0", 1, side_effect=True, det=True)
def _get0(engine, args) -> bool:
    """``get0(Code)`` — pop one character code from the input queue."""
    if engine.input_terms:
        term = engine.input_terms.popleft()
    else:
        term = -1
    return unify_or_undo(engine, args[0], term)
