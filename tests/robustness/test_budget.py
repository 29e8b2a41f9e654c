"""Behavioural tests for the unified resource budget (docs/ROBUSTNESS.md).

The headline guarantee: a wall-clock deadline threaded through
``Engine.ask`` stops even a ``between/3`` redo storm — backtracking
that makes almost no new calls — within 100 ms of expiry.
"""

from time import perf_counter

import pytest

from repro.errors import (
    BudgetExceededError,
    CallBudgetExceeded,
    DeadlineExceeded,
    QueryCancelled,
)
from repro.prolog import Database, Engine
from repro.robustness import Budget, CancelToken

STORM = "between(1, 100000000, X), X > 100000000"

NAT = """
nat(z).
nat(s(N)) :- nat(N).
"""


def engine(source=""):
    return Engine(Database.from_source(source))


class TestDeadline:
    def test_redo_storm_stops_within_100ms_of_deadline(self):
        budget = Budget(deadline=0.05)
        with pytest.raises(DeadlineExceeded):
            engine().ask(STORM, budget=budget)
        overshoot = budget.elapsed() - 0.05
        assert overshoot < 0.1, f"stopped {overshoot:.3f}s past the deadline"

    def test_deadline_error_names_the_site(self):
        with pytest.raises(DeadlineExceeded, match="deadline of 0.01s"):
            engine().ask(STORM, budget=Budget(deadline=0.01))

    def test_generous_deadline_does_not_interfere(self):
        solutions = engine().ask("between(1, 5, X)", budget=Budget(deadline=60))
        assert len(solutions) == 5

    def test_start_is_idempotent(self):
        budget = Budget(deadline=10).start()
        first = budget._expires_at
        budget.start()
        assert budget._expires_at == first
        assert budget.started and not budget.expired
        assert 0 < budget.remaining() <= 10
        assert budget.elapsed() >= 0

    def test_no_deadline_never_expires(self):
        budget = Budget().start()
        assert budget.remaining() is None and not budget.expired


class TestCounters:
    def test_call_budget_stops_infinite_generation(self):
        budget = Budget(calls=50)
        with pytest.raises(BudgetExceededError, match="call budget of 50"):
            engine(NAT).ask("nat(X), X == impossible", budget=budget)
        assert budget.calls == 51

    def test_step_budget_catches_non_calling_backtracking(self):
        budget = Budget(steps=500)
        with pytest.raises(BudgetExceededError, match="step budget of 500"):
            engine().ask("between(1, 1000000, X), fail", budget=budget)
        # The storm redoes without making new calls: steps trip first.
        assert budget.steps > budget.calls

    def test_solution_cap_is_a_clean_stop(self):
        budget = Budget(solutions=5)
        solutions = engine().ask("between(1, 100, X)", budget=budget)
        assert [s["X"] for s in solutions] == [1, 2, 3, 4, 5]
        assert budget.solutions == 5

    def test_engine_level_default_budget(self):
        eng = Engine(Database.from_source(NAT), budget=Budget(calls=50))
        with pytest.raises(BudgetExceededError):
            eng.ask("nat(X), X == impossible")


#: A tabled closure over a 30-edge chain: its fixpoint makes 33 calls,
#: all but the first inside the tabled producer.
CHAIN = ":- table path/2.\n" + "".join(
    f"edge({i}, {i + 1}).\n" for i in range(30)
) + """
path(X, Y) :- edge(X, Y).
path(X, Y) :- path(X, Z), edge(Z, Y).
"""


@pytest.mark.parametrize("compiled", [True, False], ids=["vm", "interpreter"])
class TestOneCallCap:
    """``Budget(calls=N)`` is the one call cap: the same class and
    message wherever it trips (the process backend's twin is in
    ``tests/serve/test_call_cap.py``)."""

    def test_cap_raises_call_budget_exceeded(self, compiled):
        engine = Engine(Database.from_source(NAT), compiled=compiled)
        with pytest.raises(
            CallBudgetExceeded, match=r"^call budget of 50 exhausted$"
        ):
            engine.ask("nat(X), X == impossible", budget=Budget(calls=50))

    def test_cap_trips_inside_a_tabled_call(self, compiled):
        engine = Engine(Database.from_source(CHAIN), compiled=compiled)
        assert len(engine.ask("path(0, X)")) == 30
        engine = Engine(Database.from_source(CHAIN), compiled=compiled)
        with pytest.raises(
            CallBudgetExceeded, match=r"^call budget of 20 exhausted$"
        ):
            engine.ask("path(0, X)", budget=Budget(calls=20))

    def test_engine_default_budget_caps_every_query(self, compiled):
        budget = Budget(calls=50)
        engine = Engine(Database.from_source(NAT), compiled=compiled, budget=budget)
        assert len(engine.ask("nat(X)", limit=10)) == 10
        with pytest.raises(CallBudgetExceeded):
            engine.ask("nat(X), X == impossible")
        assert budget.calls == 51


class TestCancelToken:
    def test_cancel_unwinds_with_query_cancelled(self):
        token = CancelToken()
        token.cancel("operator request")
        with pytest.raises(QueryCancelled, match="operator request"):
            engine().ask(STORM, budget=Budget(token=token))

    def test_first_reason_wins(self):
        token = CancelToken()
        token.cancel("first")
        token.cancel("second")
        assert token.cancelled and token.reason == "first"

    def test_uncancelled_token_is_inert(self):
        solutions = engine().ask(
            "between(1, 3, X)", budget=Budget(token=CancelToken())
        )
        assert len(solutions) == 3


class TestAskLimit:
    def test_limit_returns_prefix(self):
        assert len(engine().ask("between(1, 100, X)", limit=3)) == 3

    def test_limit_closes_generator_and_engine_stays_usable(self):
        eng = engine(NAT)
        first = eng.ask("nat(X)", limit=2)
        assert len(first) == 2
        # The abandoned enumeration was closed: the trail unwound, and
        # the engine answers fresh queries correctly.
        again = eng.ask("between(1, 4, X)")
        assert [s["X"] for s in again] == [1, 2, 3, 4]

    def test_limit_zero_keeps_all(self):
        # limit=None (the default) enumerates everything.
        assert len(engine().ask("between(1, 7, X)")) == 7


class TestExceptionTaxonomy:
    def test_family_relationships(self):
        assert issubclass(CallBudgetExceeded, BudgetExceededError)
        assert issubclass(DeadlineExceeded, BudgetExceededError)
        assert issubclass(QueryCancelled, BudgetExceededError)

    def test_depth_limit_is_not_resource_exhaustion(self):
        # Depth blowups are a program property, not a resource cap; the
        # CLI keeps exit 2 for them (pinned by the seed tests).
        from repro.errors import DepthLimitExceeded

        assert not issubclass(DepthLimitExceeded, BudgetExceededError)
