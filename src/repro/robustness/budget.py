"""Unified resource budgets: deadlines, counters, cooperative cancel.

The paper's experiments bound runaway queries with *count* limits (the
engine's ``max_depth`` and a call cap), but counts alone cannot cap
the ordering machinery itself — Ledeniov & Markovitch stress that the
cost of *ordering* must be bounded for subgoal reordering to be
practical, and the calibrator literally runs user clauses. A
:class:`Budget` unifies every bound the system enforces:

* a **wall-clock deadline** (seconds from :meth:`Budget.start`),
* a **call budget** (engine predicate calls charged via
  :meth:`charge_call`; the one call cap of the system, raising
  :class:`~repro.errors.CallBudgetExceeded`),
* a **step budget** (engine body-loop iterations charged via
  :meth:`charge_step` — catches backtracking loops that make no new
  calls, e.g. ``between/3`` redo storms),
* a **solution cap** (:meth:`note_solution`, a clean stop rather than
  an error),
* a cooperative :class:`CancelToken`.

One Budget object is threaded through ``Engine._charge_call`` and the
VM's per-transition step charge, the tabling fixpoint loop, the goal-search expansion
loops, and the reorder pipeline's per-predicate boundaries. Checks are
cooperative: code calls :meth:`charge_call` / :meth:`charge_step` on
its hot path (the deadline is only consulted every ``check_interval``
charges, keeping the per-iteration cost to an integer bump) or
:meth:`check` at coarse boundaries. Exhaustion raises the typed
:class:`~repro.errors.BudgetExceededError` family, which the CLI maps
to its resource exit code (3).
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional

from ..errors import (
    BudgetExceededError,
    CallBudgetExceeded,
    DeadlineExceeded,
    QueryCancelled,
)

__all__ = ["Budget", "CancelToken"]


class CancelToken:
    """Cooperative cancellation flag shared between a controller and a
    running computation.

    The controller (another thread, a signal handler, a watchdog) calls
    :meth:`cancel`; the computation observes it at the next budget
    check and unwinds with :class:`~repro.errors.QueryCancelled`.
    Setting a flag is atomic in CPython, so no locking is needed.
    """

    __slots__ = ("cancelled", "reason")

    def __init__(self) -> None:
        self.cancelled = False
        self.reason = ""

    def cancel(self, reason: str = "cancelled") -> None:
        """Request cancellation (idempotent; first reason wins)."""
        if not self.cancelled:
            self.reason = reason
            self.cancelled = True


class Budget:
    """One bundle of resource bounds, checked cooperatively.

    A Budget is single-use but re-entrant: :meth:`start` arms the
    deadline once (repeat calls are no-ops), so the same object can be
    shared by every stage of one command — reorder pipeline,
    calibration, query execution — and they all count against the same
    wall clock.
    """

    __slots__ = (
        "deadline",
        "max_calls",
        "max_steps",
        "max_solutions",
        "token",
        "check_interval",
        "calls",
        "steps",
        "solutions",
        "_started_at",
        "_expires_at",
        "_tick",
    )

    def __init__(
        self,
        deadline: Optional[float] = None,
        calls: Optional[int] = None,
        steps: Optional[int] = None,
        solutions: Optional[int] = None,
        token: Optional[CancelToken] = None,
        check_interval: int = 64,
    ):
        #: Wall-clock allowance in seconds, armed by :meth:`start`.
        self.deadline = deadline
        self.max_calls = calls
        self.max_steps = steps
        self.max_solutions = solutions
        self.token = token
        #: Charges between deadline/cancel consultations. Counter caps
        #: are still enforced exactly on every charge.
        self.check_interval = max(1, check_interval)
        self.calls = 0
        self.steps = 0
        self.solutions = 0
        self._started_at: Optional[float] = None
        self._expires_at: Optional[float] = None
        self._tick = 0

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "Budget":
        """Arm the deadline clock (idempotent); returns self."""
        if self._started_at is None:
            self._started_at = perf_counter()
            if self.deadline is not None:
                self._expires_at = self._started_at + self.deadline
        return self

    @property
    def started(self) -> bool:
        return self._started_at is not None

    @property
    def expired(self) -> bool:
        """Has the armed deadline passed? (False when no deadline.)"""
        return self._expires_at is not None and perf_counter() > self._expires_at

    def remaining(self) -> Optional[float]:
        """Seconds left on the armed deadline (None when unlimited)."""
        if self._expires_at is None:
            return None
        return max(0.0, self._expires_at - perf_counter())

    def elapsed(self) -> float:
        """Seconds since :meth:`start` (0.0 before it)."""
        if self._started_at is None:
            return 0.0
        return perf_counter() - self._started_at

    # -- checks -----------------------------------------------------------

    def check(self, site: str = "") -> None:
        """Immediate deadline + cancellation check (coarse boundaries)."""
        token = self.token
        if token is not None and token.cancelled:
            raise QueryCancelled(
                f"cancelled: {token.reason}" + (f" (at {site})" if site else "")
            )
        if self._expires_at is not None and perf_counter() > self._expires_at:
            raise DeadlineExceeded(
                f"deadline of {self.deadline:g}s exceeded"
                + (f" (at {site})" if site else "")
            )

    def charge_call(self, site: str = "engine.call") -> None:
        """Charge one predicate call; raise when a bound is hit."""
        self.calls += 1
        if self.max_calls is not None and self.calls > self.max_calls:
            raise CallBudgetExceeded(
                f"call budget of {self.max_calls} exhausted"
            )
        self._tick += 1
        if self._tick >= self.check_interval:
            self._tick = 0
            self.check(site)

    def charge_step(self, site: str = "engine.step") -> None:
        """Charge one resolution step (body-loop iteration)."""
        self.steps += 1
        if self.max_steps is not None and self.steps > self.max_steps:
            raise BudgetExceededError(
                f"step budget of {self.max_steps} exhausted"
            )
        self._tick += 1
        if self._tick >= self.check_interval:
            self._tick = 0
            self.check(site)

    def note_solution(self) -> bool:
        """Count one solution; True when the cap is now reached.

        The solution cap is a *clean stop* (the producer simply stops
        enumerating), not an error: a capped answer set is still a
        correct prefix of the full one.
        """
        self.solutions += 1
        return (
            self.max_solutions is not None
            and self.solutions >= self.max_solutions
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = []
        if self.deadline is not None:
            parts.append(f"deadline={self.deadline:g}s")
        if self.max_calls is not None:
            parts.append(f"calls={self.calls}/{self.max_calls}")
        if self.max_steps is not None:
            parts.append(f"steps={self.steps}/{self.max_steps}")
        if self.max_solutions is not None:
            parts.append(f"solutions={self.solutions}/{self.max_solutions}")
        if self.token is not None:
            parts.append(f"cancelled={self.token.cancelled}")
        return f"Budget({', '.join(parts)})"
