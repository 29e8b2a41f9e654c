"""Arithmetic: ``is/2`` and the numeric comparison predicates.

Evaluation follows DEC-10 conventions: ``/`` on two integers with an
exact quotient yields an integer in C-Prolog, but we follow the stricter
modern rule (``/`` is float unless both are ints and divide evenly is
NOT special-cased — integer division is ``//``). All benchmark programs
use only ``+``, ``-``, ``*``, ``//``, ``mod`` on integers, so the choice
does not affect any reproduced number.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Union

from ...errors import ArithmeticErrorProlog, InstantiationError, TypeErrorProlog
from ..terms import Atom, Struct, Term, Var, deref, is_number
from ..unify import unify
from . import builtin

__all__ = ["evaluate"]

Number = Union[int, float]


def _int_args(name: str, left: Number, right: Number) -> tuple:
    if not isinstance(left, int) or not isinstance(right, int):
        raise ArithmeticErrorProlog(f"{name} requires integers")
    return left, right


def _div(left: Number, right: Number) -> Number:
    if right == 0:
        raise ArithmeticErrorProlog("division by zero")
    result = left / right
    return result


def _intdiv(left: Number, right: Number) -> int:
    left, right = _int_args("//", left, right)
    if right == 0:
        raise ArithmeticErrorProlog("division by zero")
    # DEC-10 // truncates toward zero.
    return int(left / right) if right != 0 and (left < 0) != (right < 0) else left // right


def _mod(left: Number, right: Number) -> int:
    left, right = _int_args("mod", left, right)
    if right == 0:
        raise ArithmeticErrorProlog("division by zero")
    return left % right


_BINARY: Dict[str, Callable[[Number, Number], Number]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _div,
    "//": _intdiv,
    "mod": _mod,
    "rem": lambda a, b: math.fmod(*_int_args("rem", a, b))
    if b != 0
    else (_ for _ in ()).throw(ArithmeticErrorProlog("division by zero")),
    "min": min,
    "max": max,
    "**": lambda a, b: float(a) ** float(b),
    "^": lambda a, b: a ** b,
    ">>": lambda a, b: _int_args(">>", a, b)[0] >> b,
    "<<": lambda a, b: _int_args("<<", a, b)[0] << b,
    "/\\": lambda a, b: _int_args("/\\", a, b)[0] & b,
    "\\/": lambda a, b: _int_args("\\/", a, b)[0] | b,
    "xor": lambda a, b: _int_args("xor", a, b)[0] ^ b,
    "gcd": lambda a, b: math.gcd(*_int_args("gcd", a, b)),
}

_UNARY: Dict[str, Callable[[Number], Number]] = {
    "-": lambda a: -a,
    "+": lambda a: a,
    "abs": abs,
    "sign": lambda a: (a > 0) - (a < 0),
    "sqrt": math.sqrt,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "atan": math.atan,
    "exp": math.exp,
    "log": math.log,
    "float": float,
    "integer": lambda a: int(a),
    "truncate": lambda a: int(a),
    "round": lambda a: int(round(a)),
    "floor": lambda a: math.floor(a),
    "ceiling": lambda a: math.ceil(a),
    "float_integer_part": lambda a: float(int(a)),
    "float_fractional_part": lambda a: a - int(a),
    "\\": lambda a: ~_int_args("\\", a, 0)[0],
    "msb": lambda a: _int_args("msb", a, 0)[0].bit_length() - 1,
}

_CONSTANTS: Dict[str, Number] = {
    "pi": math.pi,
    "e": math.e,
    "inf": math.inf,
    "epsilon": 2.220446049250313e-16,
    "max_tagged_integer": (1 << 60) - 1,
}


def evaluate(term: Term) -> Number:
    """Evaluate an arithmetic expression term to a Python number."""
    term = deref(term)
    if isinstance(term, Var):
        raise InstantiationError("arithmetic: unbound variable")
    if is_number(term):
        return term
    if isinstance(term, Atom):
        value = _CONSTANTS.get(term.name)
        if value is None:
            raise ArithmeticErrorProlog(f"unknown constant: {term.name}")
        return value
    if isinstance(term, Struct):
        if term.arity == 2:
            fn2 = _BINARY.get(term.name)
            if fn2 is not None:
                return fn2(evaluate(term.args[0]), evaluate(term.args[1]))
        if term.arity == 1:
            fn1 = _UNARY.get(term.name)
            if fn1 is not None:
                return fn1(evaluate(term.args[0]))
        raise ArithmeticErrorProlog(
            f"unknown arithmetic function: {term.name}/{term.arity}"
        )
    raise TypeErrorProlog("evaluable", term)


@builtin("is", 2, det=True)
def _is(engine, args) -> bool:
    """``Result is Expression`` — evaluate and unify. Unifying with a
    number binds at most one variable, and only on success."""
    return unify(args[0], evaluate(args[1]), engine.trail)


@builtin("=:=", 2, det=True)
def _eq_num(engine, args) -> bool:
    """Arithmetic comparison ``X =:= Y``."""
    return evaluate(args[0]) == evaluate(args[1])


@builtin("=\\=", 2, det=True)
def _ne_num(engine, args) -> bool:
    """Arithmetic comparison ``X =\\= Y``."""
    return evaluate(args[0]) != evaluate(args[1])


@builtin("<", 2, det=True)
def _lt(engine, args) -> bool:
    """Arithmetic comparison ``X < Y``."""
    return evaluate(args[0]) < evaluate(args[1])


@builtin(">", 2, det=True)
def _gt(engine, args) -> bool:
    """Arithmetic comparison ``X > Y``."""
    return evaluate(args[0]) > evaluate(args[1])


@builtin("=<", 2, det=True)
def _le(engine, args) -> bool:
    """Arithmetic comparison ``X =< Y``."""
    return evaluate(args[0]) <= evaluate(args[1])


@builtin(">=", 2, det=True)
def _ge(engine, args) -> bool:
    """Arithmetic comparison ``X >= Y``."""
    return evaluate(args[0]) >= evaluate(args[1])


@builtin("succ", 2, det=True)
def _succ(engine, args) -> bool:
    """``succ(X, Y)``: Y = X + 1; works in both directions."""
    first, second = deref(args[0]), deref(args[1])
    if isinstance(first, int):
        if first < 0:
            raise TypeErrorProlog("non-negative integer", first)
        return unify(second, first + 1, engine.trail)
    if isinstance(second, int):
        return second > 0 and unify(first, second - 1, engine.trail)
    raise InstantiationError("succ/2: both arguments unbound")
