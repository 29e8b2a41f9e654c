"""Systematic set-equivalence verification of a reordered program.

The paper's contract (§II) is that permitted reorderings preserve
set-equivalence. This module *checks* that on concrete executions: for
every entry predicate (or a chosen set), it issues sampled calls in
every {+,-} mode — constants drawn from the program's own fact domains
— against both the original and the reordered program, and compares

* the multiset of answers (set-equivalence proper),
* success/failure ("they fail on the same queries"),
* captured side-effect output (write/nl), which set-equivalence does
  not promise but dispatched drop-in use usually wants flagged.

The result is a report the user can read before adopting the output —
the final safety net behind the static guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..analysis.calibration import CalibrationOptions, EmpiricalCalibrator
from ..analysis.modes import all_input_modes
from ..errors import PrologError
from ..prolog.database import Database
from ..prolog.engine import Engine
from ..robustness.budget import Budget
from .system import ReorderedProgram

__all__ = ["QueryCheck", "VerificationReport", "verify_reordering"]

Indicator = Tuple[str, int]


@dataclass
class QueryCheck:
    """The outcome of one original-vs-reordered query comparison."""

    query: str
    reordered_query: str
    answers_match: bool
    output_matches: bool
    original_answers: int
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.answers_match and self.error is None


@dataclass
class VerificationReport:
    """All checks performed, with a pass/fail summary."""

    checks: List[QueryCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def failures(self) -> List[QueryCheck]:
        return [check for check in self.checks if not check.ok]

    @property
    def output_mismatches(self) -> List[QueryCheck]:
        return [
            check
            for check in self.checks
            if check.ok and not check.output_matches
        ]

    def format(self) -> str:
        """The verification verdict with per-failure detail."""
        lines = [
            f"set-equivalence verification: {len(self.checks)} checks, "
            f"{len(self.failures)} failures, "
            f"{len(self.output_mismatches)} side-effect order differences"
        ]
        for check in self.failures:
            lines.append(
                f"  FAIL {check.query}  ({check.error or 'answers differ'})"
            )
        for check in self.output_mismatches:
            lines.append(f"  note {check.query}: output text differs")
        if self.passed:
            lines.append("  all answer sets identical")
        return "\n".join(lines)


def verify_reordering(
    original: Database,
    reordered: ReorderedProgram,
    indicators: Optional[Sequence[Indicator]] = None,
    max_samples: int = 6,
    call_budget: int = 200_000,
) -> VerificationReport:
    """Compare original and reordered behaviour over sampled calls.

    ``indicators`` defaults to every user predicate of the original
    program. Calls go through the reordered program's *dispatchers*
    (the drop-in path), so the var-test routing is verified too.
    """
    calibrator = EmpiricalCalibrator(
        original, CalibrationOptions(max_samples=max_samples)
    )
    report = VerificationReport()
    targets = list(indicators or original.predicates())
    for indicator in targets:
        if not reordered.database.defines(indicator):
            continue  # merged away or renamed: dispatcher absent
        for mode in all_input_modes(indicator[1]):
            for query in calibrator.sample_queries(indicator, mode):
                report.checks.append(
                    _check_query(original, reordered, query, call_budget)
                )
    return report


def _check_query(
    original: Database,
    reordered: ReorderedProgram,
    query: str,
    call_budget: int,
) -> QueryCheck:
    original_engine = Engine(original, budget=Budget(calls=call_budget))
    reordered_engine = reordered.engine(budget=Budget(calls=call_budget))
    try:
        original_solutions = original_engine.ask(query)
    except PrologError as error:
        # The original itself errors/diverges on this sample: the
        # reordered program is allowed to do anything here; skip deep
        # comparison but require it not to *succeed differently*.
        try:
            reordered_engine.ask(query)
            mirrored = False
        except PrologError:
            mirrored = True
        return QueryCheck(
            query=query,
            reordered_query=query,
            answers_match=mirrored,
            output_matches=True,
            original_answers=0,
            error=None if mirrored else f"original raised {type(error).__name__},"
            f" reordered did not",
        )
    try:
        reordered_solutions = reordered_engine.ask(query)
    except PrologError as error:
        return QueryCheck(
            query=query,
            reordered_query=query,
            answers_match=False,
            output_matches=True,
            original_answers=len(original_solutions),
            error=f"reordered raised {type(error).__name__}",
        )
    answers_match = sorted(s.key() for s in original_solutions) == sorted(
        s.key() for s in reordered_solutions
    )
    return QueryCheck(
        query=query,
        reordered_query=query,
        answers_match=answers_match,
        output_matches=original_engine.output_text()
        == reordered_engine.output_text(),
        original_answers=len(original_solutions),
    )
