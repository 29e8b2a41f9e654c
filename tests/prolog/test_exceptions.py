"""Tests for throw/1 and catch/3."""

import threading

import pytest

from repro.errors import (
    BudgetExceededError,
    CallBudgetExceeded,
    DeadlineExceeded,
    DepthLimitExceeded,
    InstantiationError,
    PrologThrow,
    QueryCancelled,
)
from repro.prolog import Engine
from repro.robustness import Budget, CancelToken


def engine(source="", **kwargs):
    return Engine.from_source(source, **kwargs)


def one(eng, query, var):
    (solution,) = eng.ask(query)
    return str(solution[var])


class TestThrow:
    def test_uncaught_ball_surfaces(self):
        with pytest.raises(PrologThrow) as excinfo:
            engine().succeeds("throw(my_ball)")
        assert str(excinfo.value.ball) == "my_ball"

    def test_unbound_ball_rejected(self):
        with pytest.raises(InstantiationError):
            engine().succeeds("throw(B)")

    def test_ball_is_copied(self):
        # The thrown ball carries the bindings at throw time.
        with pytest.raises(PrologThrow) as excinfo:
            engine().succeeds("X = payload(42), throw(wrapped(X))")
        assert str(excinfo.value.ball) == "wrapped(payload(42))"


class TestCatch:
    def test_catches_matching_ball(self):
        assert one(engine(), "catch(throw(oops), E, true)", "E") == "oops"

    def test_recovery_runs(self):
        assert one(
            engine(), "catch(throw(oops), oops, R = recovered)", "R"
        ) == "recovered"

    def test_non_matching_ball_rethrown(self):
        with pytest.raises(PrologThrow):
            engine().succeeds("catch(throw(alpha), beta, true)")

    def test_no_ball_passes_through(self):
        eng = engine("f(1). f(2).")
        assert [str(s["X"]) for s in eng.ask("catch(f(X), _, fail)")] == ["1", "2"]

    def test_goal_bindings_undone_before_recovery(self):
        eng = engine("step(X) :- X = started, throw(boom).")
        (solution,) = eng.ask("catch(step(X), boom, true)")
        # X's binding from the aborted goal must be gone.
        assert "X" not in solution or str(solution["X"]) == "X"

    def test_nested_catch_inner_wins(self):
        result = one(
            engine(),
            "catch(catch(throw(b), b, W = inner), b, W = outer)",
            "W",
        )
        assert result == "inner"

    def test_nested_catch_outer_on_mismatch(self):
        result = one(
            engine(),
            "catch(catch(throw(z), b, W = inner), z, W = outer)",
            "W",
        )
        assert result == "outer"

    def test_throw_from_deep_call(self):
        eng = engine("deep(0) :- throw(bottom). deep(N) :- M is N - 1, deep(M).")
        assert one(eng, "catch(deep(5), E, true)", "E") == "bottom"


class TestEngineErrorsCatchable:
    def test_instantiation_error(self):
        result = one(engine(), "catch(X is Y + 1, error(K, _), true)", "K")
        assert result == "instantiation_error"

    def test_existence_error(self):
        result = one(engine(), "catch(ghost(1), error(K, _), true)", "K")
        assert result == "existence_error"

    def test_evaluation_error(self):
        result = one(engine(), "catch(X is 1 // 0, error(K, _), true)", "K")
        assert result == "evaluation_error"

    def test_type_error(self):
        result = one(engine(), "catch(atom_length(3, N), error(K, _), true)", "K")
        assert result == "type_error"


class TestSafetyBoundsStayUncatchable:
    def test_depth_limit(self):
        eng = engine("loop :- loop.", max_depth=30)
        with pytest.raises(DepthLimitExceeded):
            eng.succeeds("catch(loop, _, true)")

    def test_call_budget(self):
        eng = engine("f(1). g :- f(_), g.", budget=Budget(calls=50), max_depth=20)
        with pytest.raises((CallBudgetExceeded, DepthLimitExceeded)):
            eng.succeeds("catch(g, _, true)")


#: A goal that would run for minutes: only a budget stops it.
LOOP = "loop :- between(1, 100000000, X), X < 0."


@pytest.mark.parametrize("compiled", [True, False], ids=["vm", "interpreter"])
class TestBudgetExhaustionStaysUncatchable:
    """Every ``BudgetExceededError`` passes through ``catch/3``: a
    catch-all must not turn a timed-out query into an answered one."""

    def ask(self, compiled, budget):
        return engine(LOOP, compiled=compiled).ask(
            "catch(loop, E, true)", budget=budget
        )

    def test_deadline(self, compiled):
        with pytest.raises(DeadlineExceeded):
            self.ask(compiled, Budget(deadline=0.05))

    def test_step_cap(self, compiled):
        with pytest.raises(BudgetExceededError, match="step budget of 1000"):
            self.ask(compiled, Budget(steps=1000))

    def test_call_cap(self, compiled):
        with pytest.raises(BudgetExceededError, match="call budget of 2"):
            engine("loop :- g, loop. g.", compiled=compiled).ask(
                "catch(loop, E, true)", budget=Budget(calls=2)
            )

    def test_cancellation(self, compiled):
        token = CancelToken()
        timer = threading.Timer(0.05, token.cancel, args=("stop",))
        timer.start()
        try:
            with pytest.raises(QueryCancelled, match="stop"):
                self.ask(compiled, Budget(token=token))
        finally:
            timer.cancel()
