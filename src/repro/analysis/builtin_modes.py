"""Legal modes, costs, and success probabilities for builtin predicates.

This is the "hand-written file of information about built-in predicates"
the paper's reordering system reads (§VI-B-2). For every builtin we list
the legal (input → output) mode pairs, an execution cost (in predicate
calls — almost always 1, the paper's unit), and a default success
probability for that mode. Probabilities for *test* modes default to
0.5; deterministic constructive modes get 1.0.

Modes not covered by any pair are illegal: calling the builtin that way
raises a run-time error or diverges (e.g. ``functor(T, N, 2)``,
``length(L, N)`` with both free), so the legality checker rejects goal
orders that would produce them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .modes import Mode, ModeItem, ModePair, mode_accepts, parse_mode_string

__all__ = ["BuiltinModeEntry", "BuiltinProfile", "builtin_profile", "BUILTIN_TABLE"]

Indicator = Tuple[str, int]


@dataclass(frozen=True)
class BuiltinModeEntry:
    """One legal mode of one builtin, with its cost/probability estimates."""

    pair: ModePair
    cost: float = 1.0
    prob: float = 0.5
    #: Expected number of solutions; defaults to ``prob`` (at most one).
    solutions: Optional[float] = None

    @property
    def expected_solutions(self) -> float:
        return self.prob if self.solutions is None else self.solutions


@dataclass(frozen=True)
class BuiltinProfile:
    """All legal modes of one builtin."""

    indicator: Indicator
    entries: Tuple[BuiltinModeEntry, ...]

    def accepting(self, actual: Mode) -> Optional[BuiltinModeEntry]:
        """The first entry whose input mode accepts ``actual``."""
        for entry in self.entries:
            if mode_accepts(entry.pair.input, actual):
                return entry
        return None


def _entry(
    input_text: str,
    output_text: str,
    cost: float = 1.0,
    prob: float = 0.5,
    solutions: Optional[float] = None,
):
    return BuiltinModeEntry(
        ModePair(parse_mode_string(input_text), parse_mode_string(output_text)),
        cost=cost,
        prob=prob,
        solutions=solutions,
    )


def _profile(name: str, arity: int, *entries: BuiltinModeEntry) -> BuiltinProfile:
    return BuiltinProfile((name, arity), tuple(entries))


def _zero_arity(name: str, prob: float) -> BuiltinProfile:
    return BuiltinProfile(
        (name, 0), (BuiltinModeEntry(ModePair((), ()), cost=1.0, prob=prob),)
    )


_PROFILES: List[BuiltinProfile] = [
    _zero_arity("true", 1.0),
    _zero_arity("fail", 0.0),
    _zero_arity("false", 0.0),
    _zero_arity("nl", 1.0),
    # Unification: legal in every mode; the all-? pair catches the rest.
    _profile(
        "=", 2,
        _entry("(-, +)", "(+, +)", prob=1.0),
        _entry("(+, -)", "(+, +)", prob=1.0),
        _entry("(+, +)", "(+, +)", prob=0.5),
        _entry("(?, ?)", "(?, ?)", prob=0.8),
    ),
    _profile("\\=", 2, _entry("(?, ?)", "(?, ?)", prob=0.5)),
    _profile("==", 2, _entry("(?, ?)", "(?, ?)", prob=0.3)),
    _profile("\\==", 2, _entry("(?, ?)", "(?, ?)", prob=0.7)),
    _profile("@<", 2, _entry("(?, ?)", "(?, ?)", prob=0.5)),
    _profile("@>", 2, _entry("(?, ?)", "(?, ?)", prob=0.5)),
    _profile("@=<", 2, _entry("(?, ?)", "(?, ?)", prob=0.5)),
    _profile("@>=", 2, _entry("(?, ?)", "(?, ?)", prob=0.5)),
    _profile("compare", 3, _entry("(?, ?, ?)", "(+, ?, ?)", prob=1.0)),
    # Arithmetic demands an instantiated right-hand side.
    _profile(
        "is", 2,
        _entry("(-, +)", "(+, +)", prob=1.0),
        _entry("(+, +)", "(+, +)", prob=0.5),
        _entry("(?, +)", "(+, +)", prob=0.7),
    ),
    _profile("=:=", 2, _entry("(+, +)", "(+, +)", prob=0.5)),
    _profile("=\\=", 2, _entry("(+, +)", "(+, +)", prob=0.5)),
    _profile("<", 2, _entry("(+, +)", "(+, +)", prob=0.5)),
    _profile(">", 2, _entry("(+, +)", "(+, +)", prob=0.5)),
    _profile("=<", 2, _entry("(+, +)", "(+, +)", prob=0.5)),
    _profile(">=", 2, _entry("(+, +)", "(+, +)", prob=0.5)),
    _profile(
        "succ", 2,
        _entry("(+, -)", "(+, +)", prob=1.0),
        _entry("(-, +)", "(+, +)", prob=0.9),
        _entry("(+, +)", "(+, +)", prob=0.5),
    ),
    # Type tests are legal in any mode (that is their point).
    _profile("var", 1, _entry("(?)", "(?)", prob=0.5)),
    _profile("nonvar", 1, _entry("(?)", "(?)", prob=0.5)),
    _profile("atom", 1, _entry("(?)", "(?)", prob=0.5)),
    _profile("atomic", 1, _entry("(?)", "(?)", prob=0.5)),
    _profile("number", 1, _entry("(?)", "(?)", prob=0.5)),
    _profile("integer", 1, _entry("(?)", "(?)", prob=0.5)),
    _profile("float", 1, _entry("(?)", "(?)", prob=0.5)),
    _profile("compound", 1, _entry("(?)", "(?)", prob=0.5)),
    _profile("callable", 1, _entry("(?)", "(?)", prob=0.5)),
    _profile("ground", 1, _entry("(?)", "(?)", prob=0.5)),
    _profile("is_list", 1, _entry("(?)", "(?)", prob=0.5)),
    # Term construction/inspection: the paper's functor/3 demands (§V-B).
    _profile(
        "functor", 3,
        _entry("(+, ?, ?)", "(+, +, +)", prob=1.0),
        _entry("(-, +, +)", "(?, +, +)", prob=1.0),
    ),
    _profile("arg", 3, _entry("(?, +, ?)", "(?, +, ?)", prob=0.9)),
    _profile(
        "=..", 2,
        _entry("(+, ?)", "(+, +)", prob=1.0),
        _entry("(-, +)", "(?, +)", prob=1.0),
    ),
    _profile("copy_term", 2, _entry("(?, ?)", "(?, ?)", prob=1.0)),
    # I/O: fixed predicates; write accepts anything, read outputs.
    _profile("write", 1, _entry("(?)", "(?)", prob=1.0)),
    _profile("print", 1, _entry("(?)", "(?)", prob=1.0)),
    _profile("writeln", 1, _entry("(?)", "(?)", prob=1.0)),
    _profile("tab", 1, _entry("(+)", "(+)", prob=1.0)),
    _profile("put", 1, _entry("(+)", "(+)", prob=1.0)),
    _profile("read", 1, _entry("(?)", "(?)", prob=1.0)),
    _profile("get0", 1, _entry("(-)", "(+)", prob=1.0)),
    # Negation and meta-call.
    _profile("\\+", 1, _entry("(?)", "(?)", prob=0.5)),
    _profile("throw", 1, _entry("(?)", "(?)", prob=0.0)),
    _profile("catch", 3, _entry("(?, ?, ?)", "(?, ?, ?)", prob=0.5)),
    _profile("not", 1, _entry("(?)", "(?)", prob=0.5)),
    _profile("call", 1, _entry("(?)", "(?)", prob=0.5)),
    _profile("once", 1, _entry("(?)", "(?)", prob=0.5)),
    _profile("forall", 2, _entry("(?, ?)", "(?, ?)", prob=0.5)),
    # All-solutions predicates always bind their result argument.
    _profile(
        "findall", 3,
        _entry("(?, ?, -)", "(?, ?, +)", prob=1.0, cost=2.0),
        _entry("(?, ?, +)", "(?, ?, +)", prob=0.5, cost=2.0),
    ),
    _profile(
        "bagof", 3,
        _entry("(?, ?, -)", "(?, ?, +)", prob=0.5, cost=2.0),
        _entry("(?, ?, +)", "(?, ?, +)", prob=0.5, cost=2.0),
    ),
    _profile(
        "setof", 3,
        _entry("(?, ?, -)", "(?, ?, +)", prob=0.5, cost=2.0),
        _entry("(?, ?, +)", "(?, ?, +)", prob=0.5, cost=2.0),
    ),
    # length/2: the (-,-) mode is unbounded, hence deliberately absent.
    _profile(
        "length", 2,
        _entry("(+, -)", "(+, +)", prob=1.0),
        _entry("(+, +)", "(+, +)", prob=0.5),
        _entry("(-, +)", "(+, +)", prob=1.0),
        _entry("(?, +)", "(+, +)", prob=0.8),
    ),
    # Atom/term text and sorting.
    _profile(
        "atom_codes", 2,
        _entry("(+, ?)", "(+, +)", prob=1.0),
        _entry("(-, +)", "(+, +)", prob=1.0),
    ),
    _profile(
        "number_codes", 2,
        _entry("(+, ?)", "(+, +)", prob=1.0),
        _entry("(-, +)", "(+, +)", prob=0.9),
    ),
    _profile(
        "name", 2,
        _entry("(+, ?)", "(+, +)", prob=1.0),
        _entry("(-, +)", "(+, +)", prob=1.0),
    ),
    _profile("atom_length", 2, _entry("(+, ?)", "(+, +)", prob=1.0)),
    _profile("msort", 2, _entry("(+, ?)", "(+, +)", prob=1.0, cost=2.0)),
    _profile("sort", 2, _entry("(+, ?)", "(+, +)", prob=1.0, cost=2.0)),
    _profile("keysort", 2, _entry("(+, ?)", "(+, +)", prob=1.0, cost=2.0)),
    _profile(
        "between", 3,
        _entry("(+, +, -)", "(+, +, +)", prob=1.0, cost=2.0, solutions=10.0),
        _entry("(+, +, +)", "(+, +, +)", prob=0.5),
    ),
]

BUILTIN_TABLE: Dict[Indicator, BuiltinProfile] = {
    profile.indicator: profile for profile in _PROFILES
}

# call/N with extra arguments.
for _extra in range(1, 6):
    _indicator = ("call", 1 + _extra)
    BUILTIN_TABLE[_indicator] = BuiltinProfile(
        _indicator,
        (
            BuiltinModeEntry(
                ModePair(
                    (ModeItem.PLUS,) + (ModeItem.ANY,) * _extra,
                    (ModeItem.PLUS,) + (ModeItem.ANY,) * _extra,
                ),
                cost=1.0,
                prob=0.5,
            ),
        ),
    )


def builtin_profile(indicator: Indicator) -> Optional[BuiltinProfile]:
    """The mode/cost profile of a builtin, or None if not a builtin."""
    return BUILTIN_TABLE.get(indicator)
