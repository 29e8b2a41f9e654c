"""Bytecode VM unit tests: the trampoline's own guarantees.

The two-way differential suite (`test_compiled_differential.py`) pins
answers and counters against the seed interpreter, and
`test_recorder_parity.py` pins the recorder's box ports; this file
covers what only the machine can promise — constant Python stack
depth, plain-data (picklable) choice points, deterministic `close()`,
budget aborts from inside the trampoline, no generator fallback while
instrumented, the lowered control constructs, and the disassembler.
"""

import pickle
import sys

import pytest

from repro.errors import BudgetExceededError, DepthLimitExceeded, ExistenceError
from repro.observability import attach
from repro.observability.streaming import StreamingRecorder, attach_recorder
from repro.programs import REGISTRY, corporate, family_tree
from repro.prolog import Database, Engine, Struct, Var
from repro.prolog.compile import (
    VM_BUILTIN,
    VM_CALL,
    VM_CUT,
    VM_DET,
    VM_GENERIC,
    VM_JUMP,
    VM_TRY,
)
from repro.prolog.trace import CollectingTracer
from repro.prolog.builtins import BUILTINS
from repro.prolog.vm import (
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
            COUNTDOWN, max_depth=30_000, adjust_recursion_limit=False
        )
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(500)
        try:
            assert len(engine.ask("count(20000)")) == 1
        finally:
            sys.setrecursionlimit(limit)

    def test_depth_limit_still_enforced(self):
        engine = Engine.from_source(
            "spin :- spin.", max_depth=50
        )
        with pytest.raises(DepthLimitExceeded):
            engine.ask("spin")

    def test_undefined_predicate_raises(self):
        engine = Engine.from_source("p(a).")
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


#: Counters the interpreter charges too (it has no fingerprints and no
#: skeletons, so the two compilation counters are left out).
SHARED_COUNTERS = (
    "calls", "unifications", "clause_entries", "backtracks", "table_hits",
    "table_misses", "table_answers", "tables_completed", "calls_by_predicate",
)


def bus_run(source, query, compiled=True):
    """Solutions, shared counters and structural events of one
    bus-attached run."""
    engine = Engine.from_source(source, compiled=compiled)
    bus = attach(engine)
    keys = [solution.key() for solution in engine.ask(query)]
    events = []
    for event in bus:
        record = event.to_record()
        del record["ts"]
        events.append(record)
    assert {record["kind"] for record in events} <= {"index", "table"}
    metrics = engine.metrics.to_dict()
    return keys, {key: metrics[key] for key in SHARED_COUNTERS}, events


class TestVmWithEventBus:
    """With a bus attached the machine emits the interpreter's index
    and table event sequence (the seed interpreter is the generator
    path these tests hold the VM against)."""

    @pytest.mark.parametrize("program, query", list(paper_queries()))
    def test_paper_programs_match_generator_path(self, program, query):
        source = REGISTRY[program].source()
        assert bus_run(source, query) == bus_run(source, query, compiled=False)

    @pytest.mark.parametrize("query", ["path(a, Where)", "path(X, Y)"])
    def test_table_events_match_generator_path(self, query):
        machine = bus_run(TABLED_CLOSURE, query)
        assert machine == bus_run(TABLED_CLOSURE, query, compiled=False)
        assert any(record["kind"] == "table" for record in machine[2])


def _instrument(engine, how):
    if how == "bus":
        attach(engine)
    elif how == "recorder":
        attach_recorder(engine, StreamingRecorder(sample_every=1))
    elif how == "sampled":
        attach_recorder(engine, StreamingRecorder())
    elif how == "tracer":
        engine.recorder = CollectingTracer()


class TestNoGeneratorFallback:
    """Every user call below the root runs on the machine, whatever is
    attached: ``solve_goal`` (the generator entry) is entered once per
    query, and the interpreter's clause loop never runs."""

    SOURCE = MEMBER + """
        :- table path/2.
        edge(a, b). edge(b, c).
        path(X, Y) :- edge(X, Y).
        path(X, Y) :- path(X, Z), edge(Z, Y).
        pick(X) :- (member(X, [a, b, c]), X \\== a -> true ; X = none).
        walk(X) :- path(a, X), \\+ member(X, [b]).
    """

    @pytest.mark.parametrize(
        "how, strategy",
        [
            ("bus", "topdown"),
            ("recorder", "topdown"),
            ("sampled", "topdown"),
            ("tracer", "topdown"),
            (None, "auto"),
            ("recorder", "auto"),
            ("tracer", "bottomup"),
        ],
    )
    @pytest.mark.parametrize(
        "query, answers",
        [("member(X, [a, b, c])", 3), ("pick(X)", 1), ("walk(X)", 1)],
    )
    def test_instrumented_runs_stay_on_the_machine(
        self, monkeypatch, how, strategy, query, answers
    ):
        engine = Engine.from_source(self.SOURCE, eval_strategy=strategy)
        _instrument(engine, how)
        monkeypatch.setattr(
            engine, "_solve_user_interpreted",
            lambda *args: pytest.fail("fell back to the generator clause loop"),
        )
        entries = []
        solve_goal = engine.solve_goal

        def counting(goal, depth, frame):
            entries.append(goal)
            return solve_goal(goal, depth, frame)

        monkeypatch.setattr(engine, "solve_goal", counting)
        assert len(engine.ask(query)) == answers
        assert len(entries) == 1


class TestChoicePointData:
    def test_cp_stack_is_picklable_mid_enumeration(self):
        engine = Engine.from_source("p(X) :- q(X). q(1). q(2). q(3).")
        machine = Machine(engine, Struct("p", (Var("X"),)), ("p", 1), 0)
        try:
            assert machine.next_solution()
            assert machine.cps, "expected a live choice point"
            restored = pickle.loads(pickle.dumps(machine.cps))
            assert [cp[0] for cp in restored] == [cp[0] for cp in machine.cps]
        finally:
            machine.close()

    def test_close_is_idempotent_and_final(self):
        engine = Engine.from_source("q(1). q(2).")
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
            MEMBER + "first(X) :- member(X, [a, b, c]), !."
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
        engine = Engine.from_source(source)
        with pytest.raises(BudgetExceededError):
            engine.ask(query, budget=Budget(steps=2))
        # The abort unwound the trail; the engine stays usable.
        assert engine.trail.mark() == 0
        assert len(engine.ask(query)) >= 1

    @pytest.mark.parametrize(
        "facts, bodies, query",
        [
            # Deterministic: one candidate per call.
            ("p(a).", "p(a) :- a == a.", "p(a), p(a), p(a)"),
            # Alternatives left on entry, facts reached by retries.
            ("p(a). p(b). p(c).", "p(a) :- a == a. p(b) :- b == b. p(c) :- c == c.",
             "p(X), p(Y), X == c, Y == b"),
            # A bound first argument: retries walk a scan plan (the
            # database is unindexed, so the index cannot narrow).
            ("q(a, 1). q(b, 2). q(a, 3).",
             "q(a, 1) :- a == a. q(b, 2) :- b == b. q(a, 3) :- a == a.",
             "q(a, X), X == 3"),
        ],
    )
    def test_fact_charges_its_proceed_step(self, facts, bodies, query):
        # A fact resumes its continuation without a PROCEED round but
        # still charges that round's step, so each clause entry costs
        # exactly one step less than entering a one-op clause body.
        steps, entries = {}, {}
        for name, source in (("facts", facts), ("bodies", bodies)):
            database = Database.from_source(
                source + f"\nrun :- {query}.", indexing=False
            )
            engine = Engine(database)
            budget = Budget(steps=1000)
            assert len(engine.ask("run", budget=budget)) == 1
            steps[name] = budget.steps
            entries[name] = engine.metrics.clause_entries
        assert entries["facts"] == entries["bodies"]
        assert steps["facts"] == steps["bodies"] - (entries["bodies"] - 1)

    def test_call_budget_trips_inside_machine(self):
        engine = Engine.from_source(COUNTDOWN, max_depth=5000)
        with pytest.raises(BudgetExceededError):
            engine.ask("count(1000)", budget=Budget(calls=50))
        assert engine.trail.mark() == 0


class TestAskLimitUnwind:
    def test_limit_pops_the_whole_stack(self):
        engine = Engine.from_source(MEMBER)
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
        engine = Engine.from_source(source)
        program = engine.database.compiled_program(("body", 2))
        tags = [op[0] for op in program[0].vm_code()]
        # The disjunction is lowered: TRY, its left branch, a JUMP over
        # the right branch (``true`` compiles to nothing).
        assert tags == [VM_CALL, VM_DET, VM_DET, VM_CUT, VM_TRY, VM_CALL, VM_JUMP]

    def test_only_variable_goals_stay_generic(self):
        source = """
            disp(A, B) :- (var(A) -> q(B) ; var(B) -> q(A) ; A < B).
            neg(X) :- \\+ q(X), not(q(X)).
            meta(G) :- G, (G ; true).
            q(1).
        """
        engine = Engine.from_source(source)
        generic = {
            indicator: [
                op for op in engine.database.compiled_program(indicator)[0].vm_code()
                if op[0] == VM_GENERIC
            ]
            for indicator in (("disp", 2), ("neg", 1), ("meta", 1))
        }
        assert generic[("disp", 2)] == [] and generic[("neg", 1)] == []
        # ``G`` alone and ``(G ; true)`` (a variable left branch may be
        # an if-then at run time) are the variable goals.
        assert len(generic[("meta", 1)]) == 2

    def test_nondet_builtin_stays_delegated(self):
        engine = Engine.from_source("up(X) :- between(1, 3, X).")
        program = engine.database.compiled_program(("up", 1))
        assert [op[0] for op in program[0].vm_code()] == [VM_BUILTIN]
        assert [str(s.bindings["X"]) for s in engine.ask("up(X)")] == [
            "1", "2", "3"
        ]

    def test_det_table_covers_hot_builtins(self):
        for indicator in [("is", 2), ("=", 2), ("<", 2), ("==", 2)]:
            assert BUILTINS[indicator].det


class TestDisassembler:
    def test_predicate_listing(self):
        engine = Engine.from_source(COUNTDOWN)
        text = "\n".join(disassemble_predicate(engine.database, ("count", 1)))
        assert "count/1 (2 clauses)" in text
        assert "DET_BUILTIN  is/2" in text
        assert "CALL         count/1" in text
        assert "PROCEED" in text

    def test_database_listing_covers_every_predicate(self):
        engine = Engine.from_source("a. b :- a.")
        text = disassemble_database(engine.database)
        assert "% a/0" in text and "% b/0" in text
