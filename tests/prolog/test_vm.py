"""Bytecode VM unit tests: the trampoline's own guarantees.

The three-way differential suite (`test_compiled_differential.py`)
pins answers and counters against the generator oracles; this file
covers what only the machine can promise — constant Python stack
depth, plain-data (picklable) choice points, deterministic `close()`,
budget aborts from inside the trampoline, and the disassembler.
"""

import pickle
import sys

import pytest

from repro.errors import BudgetExceededError, DepthLimitExceeded, ExistenceError
from repro.observability import attach
from repro.programs import REGISTRY, corporate, family_tree
from repro.prolog import Engine, Struct, Var
from repro.prolog.compile import VM_BUILTIN, VM_CALL, VM_CUT, VM_DET, VM_GENERIC
from repro.prolog.vm import (
    DET_BUILTINS,
    Machine,
    disassemble_database,
    disassemble_predicate,
)
from repro.robustness.budget import Budget

COUNTDOWN = """
    count(0).
    count(N) :- N > 0, M is N - 1, count(M).
"""

MEMBER = """
    member(X, [X|_]).
    member(X, [_|T]) :- member(X, T).
"""


class TestTrampolineDepth:
    def test_deep_recursion_without_python_stack(self):
        """20k-deep SLD recursion on a few hundred Python frames.

        The generator ladder needs a Python frame per depth level (the
        engine raises the interpreter recursion limit to cope); the
        machine's depth is data on the choice-point stack.
        """
        engine = Engine.from_source(
            COUNTDOWN, vm=True, max_depth=30_000, adjust_recursion_limit=False
        )
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(500)
        try:
            assert len(engine.ask("count(20000)")) == 1
        finally:
            sys.setrecursionlimit(limit)

    def test_depth_limit_still_enforced(self):
        engine = Engine.from_source(
            "spin :- spin.", vm=True, max_depth=50
        )
        with pytest.raises(DepthLimitExceeded):
            engine.ask("spin")

    def test_undefined_predicate_raises(self):
        engine = Engine.from_source("p(a).", vm=True)
        with pytest.raises(ExistenceError):
            engine.ask("missing(X)")


def paper_queries():
    """The bundled programs' table queries (slices of the long sweeps)."""
    for _, query in corporate.TABLE3_QUERIES:
        yield "corporate", query
    for name, arity in family_tree.TESTED_PREDICATES:
        variables = ", ".join(f"V{i}" for i in range(arity))
        yield "family_tree", f"{name}({variables})"
    for program in ("meal", "p58", "team", "kmbench"):
        for _, queries in REGISTRY[program].TABLE4_QUERIES:
            for query in queries[:3]:
                yield program, query
    for _, query in REGISTRY["geography"].QUESTIONS:
        yield "geography", query


TABLED_CLOSURE = """
    :- table path/2.
    edge(a, b). edge(b, c). edge(c, d). edge(b, d).
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- path(X, Z), edge(Z, Y).
"""


def bus_run(source, query, vm):
    """Solutions, counters and structural events of one bus-attached run."""
    engine = Engine.from_source(source, vm=vm)
    bus = attach(engine)
    keys = [solution.key() for solution in engine.ask(query)]
    events = []
    for event in bus:
        record = event.to_record()
        del record["ts"]
        events.append(record)
    assert {record["kind"] for record in events} <= {"index", "table"}
    return keys, engine.metrics.to_dict(), events


class TestVmWithEventBus:
    """An attached bus no longer sends the VM to the generator path."""

    @pytest.mark.parametrize("program, query", list(paper_queries()))
    def test_paper_programs_match_generator_path(self, program, query):
        source = REGISTRY[program].source()
        assert bus_run(source, query, vm=True) == bus_run(source, query, vm=False)

    @pytest.mark.parametrize("query", ["path(a, Where)", "path(X, Y)"])
    def test_table_events_match_generator_path(self, query):
        machine = bus_run(TABLED_CLOSURE, query, vm=True)
        assert machine == bus_run(TABLED_CLOSURE, query, vm=False)
        assert any(record["kind"] == "table" for record in machine[2])

    def test_bus_run_stays_on_the_machine(self, monkeypatch):
        engine = Engine.from_source(MEMBER, vm=True)
        attach(engine)
        monkeypatch.setattr(
            engine, "_solve_user_compiled",
            lambda *args: pytest.fail("fell back to the generator path"),
        )
        assert len(engine.ask("member(X, [a, b, c])")) == 3


class TestChoicePointData:
    def test_cp_stack_is_picklable_mid_enumeration(self):
        engine = Engine.from_source("p(X) :- q(X). q(1). q(2). q(3).", vm=True)
        machine = Machine(engine, Struct("p", (Var("X"),)), ("p", 1), 0)
        try:
            assert machine.next_solution()
            assert machine.cps, "expected a live choice point"
            restored = pickle.loads(pickle.dumps(machine.cps))
            assert [cp[0] for cp in restored] == [cp[0] for cp in machine.cps]
        finally:
            machine.close()

    def test_close_is_idempotent_and_final(self):
        engine = Engine.from_source("q(1). q(2).", vm=True)
        machine = Machine(engine, Struct("q", (Var("X"),)), ("q", 1), 0)
        assert machine.next_solution()
        machine.close()
        machine.close()
        assert not machine.next_solution()
        assert machine.cps == []

    def test_close_preserves_committed_bindings(self):
        """Cut-committed bindings survive cleanup (the answer is read
        off the trail after the machine is discarded)."""
        engine = Engine.from_source(
            MEMBER + "first(X) :- member(X, [a, b, c]), !.", vm=True
        )
        solutions = engine.ask("first(X)")
        assert [str(s.bindings["X"]) for s in solutions] == ["a"]


class TestBudgetsOnVmPath:
    @pytest.mark.parametrize(
        "query",
        [
            "first(X)",                      # cut
            "pick(X)",                       # if-then-else
            "lonely(9)",                     # negation as failure
        ],
    )
    def test_step_budget_aborts_control_constructs(self, query):
        source = MEMBER + """
            first(X) :- member(X, [a, b, c]), !.
            pick(X) :- (member(X, [1, 2]) -> true ; X = none).
            lonely(X) :- \\+ member(X, [1, 2, 3]).
        """
        engine = Engine.from_source(source, vm=True)
        with pytest.raises(BudgetExceededError):
            engine.ask(query, budget=Budget(steps=2))
        # The abort unwound the trail; the engine stays usable.
        assert engine.trail.mark() == 0
        assert len(engine.ask(query)) >= 1

    def test_call_budget_trips_inside_machine(self):
        engine = Engine.from_source(COUNTDOWN, vm=True, max_depth=5000)
        with pytest.raises(BudgetExceededError):
            engine.ask("count(1000)", budget=Budget(calls=50))
        assert engine.trail.mark() == 0


class TestAskLimitUnwind:
    def test_limit_pops_the_whole_stack(self):
        engine = Engine.from_source(MEMBER, vm=True)
        solutions = engine.ask("member(X, [a, b, c, d])", limit=2)
        assert len(solutions) == 2
        assert engine.trail.mark() == 0
        # Fresh enumeration still sees every answer.
        assert len(engine.ask("member(X, [a, b, c, d])")) == 4


class TestBytecodeShape:
    def test_goal_classification(self):
        source = """
            body(X, Y) :- q(X), Y is X + 1, Y > 0, !, (q(Y) ; true).
            q(1).
        """
        engine = Engine.from_source(source, vm=True)
        program = engine.database.compiled_program(("body", 2))
        tags = [op[0] for op in program[0].vm_code()]
        assert tags == [VM_CALL, VM_DET, VM_DET, VM_CUT, VM_GENERIC]

    def test_nondet_builtin_stays_delegated(self):
        engine = Engine.from_source("up(X) :- between(1, 3, X).", vm=True)
        program = engine.database.compiled_program(("up", 1))
        assert [op[0] for op in program[0].vm_code()] == [VM_BUILTIN]
        assert [str(s.bindings["X"]) for s in engine.ask("up(X)")] == [
            "1", "2", "3"
        ]

    def test_det_table_covers_hot_builtins(self):
        for indicator in [("is", 2), ("=", 2), ("<", 2), ("==", 2)]:
            assert indicator in DET_BUILTINS


class TestDisassembler:
    def test_predicate_listing(self):
        engine = Engine.from_source(COUNTDOWN, vm=True)
        text = "\n".join(disassemble_predicate(engine.database, ("count", 1)))
        assert "count/1 (2 clauses)" in text
        assert "DET_BUILTIN  is/2" in text
        assert "CALL         count/1" in text
        assert "PROCEED" in text

    def test_database_listing_covers_every_predicate(self):
        engine = Engine.from_source("a. b :- a.", vm=True)
        text = disassemble_database(engine.database)
        assert "% a/0" in text and "% b/0" in text
