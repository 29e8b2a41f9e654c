"""Exception hierarchy for the reproduction.

All library-specific errors derive from :class:`ReproError`, so callers
can catch a single base class. Engine-level errors mirror the run-time
errors the paper's target systems (C-Prolog, SB-Prolog) raise: calling a
builtin in an illegal mode gives :class:`InstantiationError`, exceeding
the depth bound gives :class:`DepthLimitExceeded`, and so on.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "PrologThrow",
    "PrologSyntaxError",
    "PrologError",
    "InstantiationError",
    "TypeErrorProlog",
    "ExistenceError",
    "ArithmeticErrorProlog",
    "DepthLimitExceeded",
    "BudgetExceededError",
    "CallBudgetExceeded",
    "DeadlineExceeded",
    "QueryCancelled",
    "FaultInjected",
    "TablingError",
    "IncompleteTableError",
    "AnalysisError",
    "DeclarationError",
    "ReorderingError",
    "IllegalModeError",
]


class ReproError(Exception):
    """Base class for every error raised by this library."""


class PrologSyntaxError(ReproError):
    """A syntax error while reading Prolog source.

    Carries the source position for diagnostics.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class PrologError(ReproError):
    """Base class for run-time errors raised by the engine."""


class PrologThrow(ReproError):
    """A ball thrown by ``throw/1``, awaiting a matching ``catch/3``.

    Deliberately *not* a :class:`PrologError`: user balls are control
    flow, not engine faults; an uncaught ball surfaces as this
    exception with the ball term attached.
    """

    def __init__(self, ball):
        from .prolog.writer import term_to_string

        super().__init__(f"uncaught ball: {term_to_string(ball)}")
        self.ball = ball


class InstantiationError(PrologError):
    """A builtin demanded an instantiated argument and got a variable.

    This is exactly the "illegal mode" failure the paper's legal-mode
    system exists to avoid (e.g. ``functor/3`` with only an arity).
    """


class TypeErrorProlog(PrologError):
    """A builtin received an argument of the wrong type."""

    def __init__(self, expected: str, culprit: object):
        super().__init__(f"type error: expected {expected}, got {culprit!r}")
        self.expected = expected
        self.culprit = culprit


class ExistenceError(PrologError):
    """A goal called a predicate with no clauses and no builtin."""

    def __init__(self, indicator):
        name, arity = indicator
        super().__init__(f"undefined predicate: {name}/{arity}")
        self.indicator = indicator


class ArithmeticErrorProlog(PrologError):
    """Arithmetic evaluation failed (unknown function, division by zero)."""


class DepthLimitExceeded(PrologError):
    """The engine's recursion-depth safety bound was exceeded.

    The paper notes that wrong modes send recursive predicates into
    infinite recursion; the engine bounds depth so experiments on illegal
    modes terminate with a detectable error instead of hanging.
    """


class BudgetExceededError(PrologError):
    """A resource budget ran out before the computation finished.

    Base class for every exhaustion kind the robustness layer tracks
    (calls, steps, wall-clock deadline, cooperative cancellation). The
    CLI maps this family to its own exit code (3) so callers can tell
    "the program is wrong" (exit 2) from "the program ran out of
    resources" (exit 3). See docs/ROBUSTNESS.md.
    """


class CallBudgetExceeded(BudgetExceededError):
    """A :class:`repro.robustness.Budget`'s call cap (``calls=N``) ran out."""


class DeadlineExceeded(BudgetExceededError):
    """A wall-clock deadline expired before the computation finished.

    Raised by :class:`repro.robustness.Budget` at its cooperative check
    sites (engine call/step charging, the tabling fixpoint, goal-search
    expansion, pipeline phase boundaries).
    """


class QueryCancelled(BudgetExceededError):
    """A cooperative :class:`repro.robustness.CancelToken` was tripped.

    Semantically a caller decision rather than an exhaustion, but it
    shares the budget machinery (and the CLI's resource exit code): the
    computation was stopped before producing a complete answer set.
    """


class FaultInjected(ReproError):
    """An injected fault fired (see :mod:`repro.robustness.faults`).

    Only ever raised by the deterministic fault-injection harness; the
    robustness test-suite uses it to prove that every degradation path
    (engine abort, pipeline per-predicate isolation, calibration
    quarantine) handles an arbitrary unexpected error.
    """


class TablingError(PrologError):
    """Base class for errors raised by the tabling subsystem."""


class IncompleteTableError(TablingError):
    """Negation as failure consumed a table that is not yet complete.

    Tabled negation is only sound for stratified programs: the negated
    subgoal's table must reach its fixpoint before ``\\+`` can decide
    anything. Crossing a negation boundary into an in-flight evaluation
    would read a partial answer set, so the engine raises instead.
    """

    def __init__(self, indicator):
        name, arity = indicator
        super().__init__(
            f"tabled negation on incomplete table {name}/{arity} "
            f"(program is not stratified through this cycle)"
        )
        self.indicator = indicator


class AnalysisError(ReproError):
    """A static analysis could not complete."""


class DeclarationError(ReproError):
    """A directive (``:- mode(...)`` etc.) is malformed or inconsistent."""


class ReorderingError(ReproError):
    """The reorderer could not produce a safe order."""


class IllegalModeError(ReorderingError):
    """A candidate goal order would call some goal in an illegal mode."""
