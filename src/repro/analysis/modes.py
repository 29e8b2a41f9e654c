"""The legal-mode system (paper §V).

A *mode* is a tuple of mode items, one per argument:

* ``+`` — the argument is instantiated (ground, in our conservative
  abstraction);
* ``-`` — the argument is an uninstantiated variable;
* ``?`` — either, or a partly-instantiated structure.

Following §V-C, predicates carry *legal mode pairs*: an input mode in
which the predicate may safely be called, and the output mode it leaves
behind on success ("at least as instantiated as its input mode").

The module also defines the abstract instantiation lattice used by the
legality checker and the mode-inference analysis::

        ANY            ('?': unknown / partial)
       /   \\
    FREE   GROUND      ('-')    ('+')

and the translation between argument terms, variable states, and mode
items. The key asymmetry (paper's ``build/4`` example, §V-D): a ``+``
*demand* is satisfied only by GROUND, never by ANY — "we must forego
the first rather than risk the second".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterator, Tuple

from ..errors import DeclarationError
from ..prolog.terms import Atom, Struct, Term, Var, deref, is_number, term_variables

__all__ = [
    "ModeItem",
    "Mode",
    "ModePair",
    "Inst",
    "VarState",
    "mode_from_term",
    "mode_to_term",
    "mode_str",
    "parse_mode_string",
    "all_input_modes",
    "item_accepts",
    "mode_accepts",
    "item_to_inst",
    "inst_to_item",
    "join_inst",
    "argument_inst",
    "call_mode",
    "apply_output",
    "bind_head_states",
]


class ModeItem(Enum):
    """One argument's mode: ``+`` (instantiated), ``-`` (free), ``?``."""

    PLUS = "+"
    MINUS = "-"
    ANY = "?"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def from_symbol(cls, symbol: str) -> "ModeItem":
        for item in cls:
            if item.value == symbol:
                return item
        raise DeclarationError(f"unknown mode symbol: {symbol!r}")


Mode = Tuple[ModeItem, ...]


@dataclass(frozen=True)
class ModePair:
    """A legal (input, output) mode pair for a predicate."""

    input: Mode
    output: Mode

    def __post_init__(self):
        if len(self.input) != len(self.output):
            raise DeclarationError("mode pair arity mismatch")
        for item_in, item_out in zip(self.input, self.output):
            if item_in is ModeItem.PLUS and item_out is not ModeItem.PLUS:
                raise DeclarationError(
                    "output mode must be at least as instantiated as input"
                )

    def __str__(self) -> str:
        return f"{mode_str(self.input)} -> {mode_str(self.output)}"

    @property
    def arity(self) -> int:
        return len(self.input)


class Inst(Enum):
    """Abstract instantiation state of a variable or argument."""

    FREE = "free"
    GROUND = "ground"
    ANY = "any"


#: Mutable mapping from variable identity to abstract state.
VarState = Dict[int, Inst]


def join_inst(left: Inst, right: Inst) -> Inst:
    """Least upper bound in the FREE/GROUND/ANY lattice."""
    if left is right:
        return left
    return Inst.ANY


def item_to_inst(item: ModeItem) -> Inst:
    """The abstract state a mode item denotes."""
    # Identity tests, not a dict: this runs per argument per search node.
    if item is ModeItem.PLUS:
        return Inst.GROUND
    if item is ModeItem.MINUS:
        return Inst.FREE
    if item is ModeItem.ANY:
        return Inst.ANY
    raise KeyError(item)


def inst_to_item(inst: Inst) -> ModeItem:
    """The mode item describing an abstract state."""
    if inst is Inst.GROUND:
        return ModeItem.PLUS
    if inst is Inst.FREE:
        return ModeItem.MINUS
    if inst is Inst.ANY:
        return ModeItem.ANY
    raise KeyError(inst)


def item_accepts(required: ModeItem, actual: ModeItem) -> bool:
    """Does an argument in state ``actual`` satisfy the demand ``required``?

    ``+`` demands GROUND; ``-`` demands FREE; ``?`` accepts anything.
    ANY satisfies neither ``+`` nor ``-`` (conservative, per §V-D).
    """
    if required is ModeItem.ANY:
        return True
    return required is actual


def mode_accepts(required: Mode, actual: Mode) -> bool:
    """Pointwise :func:`item_accepts` over whole modes."""
    if len(required) != len(actual):
        return False
    return all(item_accepts(r, a) for r, a in zip(required, actual))


def mode_str(mode: Mode) -> str:
    """Render e.g. ``(+, -, ?)``; ``()`` for arity 0."""
    return "(" + ", ".join(str(item) for item in mode) + ")"


def parse_mode_string(text: str) -> Mode:
    """Parse ``(+, -)`` / ``+-`` / ``ui`` style mode spellings.

    Accepts the paper's terminal-letter convention too: ``u`` for
    uninstantiated (``-``) and ``i`` for instantiated (``+``).
    """
    cleaned = text.strip().strip("()").replace(",", "").replace(" ", "")
    items = []
    for char in cleaned:
        if char in "+i":
            items.append(ModeItem.PLUS)
        elif char in "-u":
            items.append(ModeItem.MINUS)
        elif char == "?":
            items.append(ModeItem.ANY)
        else:
            raise DeclarationError(f"bad mode character {char!r} in {text!r}")
    return tuple(items)


def mode_from_term(term: Term) -> Mode:
    """Extract a mode from a term like ``f(+, -, ?)`` or a list ``[+, -]``."""
    term = deref(term)
    if isinstance(term, Atom):
        if term.name == "[]":
            return ()
        raise DeclarationError(f"cannot read mode from atom {term.name!r}")
    if not isinstance(term, Struct):
        raise DeclarationError(f"cannot read mode from {term!r}")
    if term.name == "." and term.arity == 2:
        from ..prolog.terms import list_to_python

        elements = list_to_python(term)
    else:
        elements = list(term.args)
    items = []
    for element in elements:
        element = deref(element)
        if not isinstance(element, Atom):
            raise DeclarationError(f"mode item must be an atom: {element!r}")
        items.append(ModeItem.from_symbol(element.name))
    return tuple(items)


def mode_to_term(name: str, mode: Mode) -> Term:
    """Build the term ``name(+, -, ...)`` for a mode (an atom if arity 0)."""
    if not mode:
        return Atom(name)
    return Struct(name, tuple(Atom(item.value) for item in mode))


def all_input_modes(arity: int) -> Iterator[Mode]:
    """Every {+, -} input mode of the given arity (2^arity of them)."""
    for combo in itertools.product((ModeItem.PLUS, ModeItem.MINUS), repeat=arity):
        yield combo


# -- argument/variable state translation ------------------------------------


def argument_inst(term: Term, states: VarState) -> Inst:
    """Abstract state of an argument term under variable states."""
    term = deref(term)
    if isinstance(term, Var):
        return states.get(id(term), Inst.FREE)
    if isinstance(term, Atom) or is_number(term):
        return Inst.GROUND
    assert isinstance(term, Struct)
    variables = term_variables(term)
    if not variables:
        return Inst.GROUND
    if all(states.get(id(v), Inst.FREE) is Inst.GROUND for v in variables):
        return Inst.GROUND
    return Inst.ANY  # partly instantiated structure


def call_mode(goal: Term, states: VarState) -> Mode:
    """The mode in which ``goal`` would be called given variable states."""
    goal = deref(goal)
    if isinstance(goal, Atom):
        return ()
    assert isinstance(goal, Struct)
    return tuple(inst_to_item(argument_inst(arg, states)) for arg in goal.args)


def _set_ground(term: Term, states: VarState) -> None:
    for variable in term_variables(term):
        states[id(variable)] = Inst.GROUND


def _raise_to_any(term: Term, states: VarState) -> None:
    for variable in term_variables(term):
        if states.get(id(variable), Inst.FREE) is Inst.FREE:
            states[id(variable)] = Inst.ANY


def apply_output(goal: Term, output: Mode, states: VarState) -> None:
    """Update variable states after ``goal`` succeeds with ``output`` mode."""
    goal = deref(goal)
    if isinstance(goal, Atom):
        return
    assert isinstance(goal, Struct)
    if len(output) != goal.arity:
        raise DeclarationError(
            f"output mode arity {len(output)} does not match goal {goal.name}/{goal.arity}"
        )
    for arg, item in zip(goal.args, output):
        if item is ModeItem.PLUS:
            _set_ground(arg, states)
        elif item is ModeItem.ANY:
            _raise_to_any(arg, states)
        # '-' leaves the argument untouched.


def bind_head_states(head: Term, input_mode: Mode, states: VarState) -> None:
    """Initialise variable states from the head and an input mode.

    A ``+`` argument grounds every variable in that head position; a
    ``-`` argument leaves a bare variable free (a structured head
    position called with ``-`` leaves its variables free too — the
    caller's variable gets the structure, not vice versa); ``?`` makes
    the position's variables ANY. Variables appearing in several
    positions take the most instantiated state.
    """
    head = deref(head)
    if isinstance(head, Atom):
        return
    assert isinstance(head, Struct)
    if len(input_mode) != head.arity:
        raise DeclarationError(
            f"mode arity {len(input_mode)} does not match head {head.name}/{head.arity}"
        )
    for arg, item in zip(head.args, input_mode):
        if item is ModeItem.PLUS:
            _set_ground(arg, states)
    for arg, item in zip(head.args, input_mode):
        if item is ModeItem.ANY:
            _raise_to_any(arg, states)
    # '-' positions: leave any not-yet-seen variables implicitly FREE.
