"""Programmer declarations feeding the reordering system (paper Fig. 3
and §VI-B-2).

The reorderer reads these from ``:- ...`` directives in the program
source:

* ``:- entry(name/arity).`` — a top-level predicate (queries start here).
* ``:- legal_mode(pred(+, -), pred(+, +)).`` — a legal input/output mode
  pair. The one-argument form ``:- legal_mode(pred(+, -)).`` (and the
  classic DEC-10 ``:- mode(pred(+, -)).``) defaults the output mode to
  the input with every ``-`` promoted to ``+`` — "the predicate grounds
  what it is asked to compute", which holds for all database-style
  predicates; declare the pair explicitly when it does not.
* ``:- recursive(name/arity).`` — declare a predicate recursive (also
  detected automatically; the declaration additionally marks the
  predicate as one whose clause bodies must not be reordered unless its
  legal modes are declared).
* ``:- fixed(name/arity).`` — force fixity (side-effects the analysis
  cannot see).
* ``:- cost(name/arity, [+, -], Cost, Prob).`` — expected cost and
  success probability for calls in the given mode (needed for recursive
  predicates, §VI-B-2).
* ``:- match_prob(name/arity, Prob).`` — probability that a call
  unifies with a (non-variable) clause head of this predicate.
* ``:- domain_size(name/arity, ArgIndex, N).`` — Warren-style domain
  size of an argument position.

Names accept ``name/arity`` terms; mode tuples accept both ``f(+, -)``
terms and ``[+, -]`` lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..errors import DeclarationError
from ..prolog.database import Database
from ..prolog.terms import Atom, Struct, Term, deref, functor_indicator
from .modes import Mode, ModeItem, ModePair, mode_from_term

__all__ = ["CostDeclaration", "Declarations", "parse_indicator", "default_output_mode"]

Indicator = Tuple[str, int]


@dataclass(frozen=True)
class CostDeclaration:
    """Declared cost/probability of a predicate in one input mode."""

    indicator: Indicator
    mode: Mode
    cost: float
    prob: float
    #: Expected solutions; None defaults to ``prob`` (at most one answer).
    solutions: Optional[float] = None

    @property
    def expected_solutions(self) -> float:
        return self.prob if self.solutions is None else self.solutions


def parse_indicator(term: Term) -> Indicator:
    """Read a ``name/arity`` term."""
    term = deref(term)
    if (
        isinstance(term, Struct)
        and term.name == "/"
        and term.arity == 2
    ):
        name = deref(term.args[0])
        arity = deref(term.args[1])
        if isinstance(name, Atom) and isinstance(arity, int):
            return (name.name, arity)
    raise DeclarationError(f"expected name/arity, got {term!r}")


def default_output_mode(input_mode: Mode) -> Mode:
    """Input with every ``-`` promoted to ``+`` (see module docstring)."""
    return tuple(
        ModeItem.PLUS if item is ModeItem.MINUS else item for item in input_mode
    )


class Declarations:
    """All directive-supplied information for one program."""

    def __init__(self) -> None:
        self.entries: List[Indicator] = []
        self.legal_modes: Dict[Indicator, List[ModePair]] = {}
        self.recursive: Set[Indicator] = set()
        self.fixed: Set[Indicator] = set()
        self.costs: Dict[Tuple[Indicator, Mode], CostDeclaration] = {}
        self.match_probs: Dict[Indicator, float] = {}
        self.domain_sizes: Dict[Tuple[Indicator, int], int] = {}
        #: Predicates declared ``:- table name/arity`` (the engine keeps
        #: its own copy on the Database; this one feeds the cost model).
        self.tabled: Set[Indicator] = set()
        #: Directives we did not understand (reported, not fatal).
        self.unknown: List[Term] = []

    # -- construction ------------------------------------------------------

    @classmethod
    def from_database(cls, database: Database) -> "Declarations":
        """Collect declarations from a database's directives."""
        declarations = cls()
        for directive in database.directives:
            declarations.add_directive(directive)
        declarations.validate(database)
        return declarations

    def add_directive(self, directive: Term) -> None:
        """Record one directive term (unknown ones are collected)."""
        directive = deref(directive)
        indicator = functor_indicator(directive)
        handler = {
            ("entry", 1): self._on_entry,
            ("legal_mode", 1): self._on_legal_mode1,
            ("legal_mode", 2): self._on_legal_mode2,
            ("mode", 1): self._on_legal_mode1,
            ("recursive", 1): self._on_recursive,
            ("fixed", 1): self._on_fixed,
            ("cost", 4): self._on_cost,
            ("cost", 5): self._on_cost,
            ("match_prob", 2): self._on_match_prob,
            ("domain_size", 3): self._on_domain_size,
            ("table", 1): self._on_table,
            ("op", 3): self._on_noop,
            ("dynamic", 1): self._on_noop,
            ("discontiguous", 1): self._on_noop,
            ("multifile", 1): self._on_noop,
        }.get(indicator)
        if handler is None:
            self.unknown.append(directive)
            return
        handler(directive.args if isinstance(directive, Struct) else ())

    # -- handlers ------------------------------------------------------------

    def _on_entry(self, args) -> None:
        self.entries.append(parse_indicator(args[0]))

    @staticmethod
    def _mode_spec(term: Term) -> Tuple[Indicator, Mode]:
        term = deref(term)
        if isinstance(term, Atom):
            return (term.name, 0), ()
        if not isinstance(term, Struct):
            raise DeclarationError(f"bad mode specification: {term!r}")
        return (term.name, term.arity), mode_from_term(term)

    def _on_legal_mode1(self, args) -> None:
        indicator, input_mode = self._mode_spec(args[0])
        pair = ModePair(input_mode, default_output_mode(input_mode))
        self.legal_modes.setdefault(indicator, []).append(pair)

    def _on_legal_mode2(self, args) -> None:
        in_indicator, input_mode = self._mode_spec(args[0])
        out_indicator, output_mode = self._mode_spec(args[1])
        if in_indicator != out_indicator:
            raise DeclarationError(
                f"legal_mode pair mixes predicates: {in_indicator} vs {out_indicator}"
            )
        pair = ModePair(input_mode, output_mode)
        self.legal_modes.setdefault(in_indicator, []).append(pair)

    def _on_recursive(self, args) -> None:
        self.recursive.add(parse_indicator(args[0]))

    def _on_fixed(self, args) -> None:
        self.fixed.add(parse_indicator(args[0]))

    def _on_table(self, args) -> None:
        stack = [args[0]]
        while stack:
            spec = deref(stack.pop())
            if (
                isinstance(spec, Struct)
                and spec.name in (",", ".")
                and spec.arity == 2
            ):
                stack.append(spec.args[1])
                stack.append(spec.args[0])
                continue
            if isinstance(spec, Atom) and spec.name == "[]":
                continue
            self.tabled.add(parse_indicator(spec))

    def _on_noop(self, args) -> None:
        # Understood but irrelevant to the cost model (op/3 is applied
        # by the reader; dynamic/discontiguous/multifile are accepted
        # for compatibility).
        pass

    def _on_cost(self, args) -> None:
        indicator = parse_indicator(args[0])
        mode = mode_from_term(args[1])
        cost = self._number(args[2], "cost")
        prob = self._number(args[3], "probability")
        solutions = self._number(args[4], "solutions") if len(args) > 4 else None
        if not 0.0 <= prob <= 1.0:
            raise DeclarationError(f"probability out of range: {prob}")
        if len(mode) != indicator[1]:
            raise DeclarationError(
                f"cost mode arity mismatch for {indicator[0]}/{indicator[1]}"
            )
        self.costs[(indicator, mode)] = CostDeclaration(
            indicator, mode, cost, prob, solutions
        )

    def _on_match_prob(self, args) -> None:
        indicator = parse_indicator(args[0])
        prob = self._number(args[1], "probability")
        if not 0.0 <= prob <= 1.0:
            raise DeclarationError(f"probability out of range: {prob}")
        self.match_probs[indicator] = prob

    def _on_domain_size(self, args) -> None:
        indicator = parse_indicator(args[0])
        position = deref(args[1])
        size = deref(args[2])
        if not isinstance(position, int) or not isinstance(size, int):
            raise DeclarationError("domain_size expects integer position and size")
        if not 1 <= position <= indicator[1]:
            raise DeclarationError(
                f"domain_size position {position} out of range for "
                f"{indicator[0]}/{indicator[1]}"
            )
        self.domain_sizes[(indicator, position)] = size

    @staticmethod
    def _number(term: Term, what: str) -> float:
        term = deref(term)
        if isinstance(term, (int, float)) and not isinstance(term, bool):
            return float(term)
        raise DeclarationError(f"expected a number for {what}, got {term!r}")

    # -- validation & lookup -------------------------------------------------------

    def validate(self, database: Database) -> None:
        """Check declared predicates exist and mode arities line up."""
        for indicator, pairs in self.legal_modes.items():
            for pair in pairs:
                if pair.arity != indicator[1]:
                    raise DeclarationError(
                        f"legal_mode arity mismatch for "
                        f"{indicator[0]}/{indicator[1]}: {pair}"
                    )
        from ..prolog.builtins import is_builtin

        for indicator in self.entries:
            if not database.defines(indicator) and not is_builtin(indicator):
                raise DeclarationError(
                    f"entry {indicator[0]}/{indicator[1]} is not defined"
                )

    def declared_pairs(self, indicator: Indicator) -> List[ModePair]:
        """Declared legal mode pairs of a predicate (maybe empty)."""
        return list(self.legal_modes.get(indicator, ()))

    def cost_for(self, indicator: Indicator, mode: Mode) -> Optional[CostDeclaration]:
        """The cost declaration matching a call mode.

        Exact declared mode first; otherwise the first declaration whose
        mode (which may contain ``?``) accepts the actual mode.
        """
        from .modes import mode_accepts

        exact = self.costs.get((indicator, mode))
        if exact is not None:
            return exact
        for (declared_indicator, declared_mode), declaration in self.costs.items():
            if declared_indicator == indicator and mode_accepts(declared_mode, mode):
                return declaration
        return None
