"""Unit tests for the clause-compilation layer (repro.prolog.compile).

The skeleton contracts the engine's hot loop relies on: dense slot
numbering, ground-subterm sharing (identity, not equality), body goal
sharing, trail discipline of ``unify_head``, head fingerprints,
and the database's generation-counter cache invalidation.
"""

from repro.prolog import (
    Atom,
    Database,
    Struct,
    Trail,
    Var,
    body_goals,
    compile_clause,
    first_arg_key,
    parse_term,
    split_clause,
)
from repro.prolog.compile import CompiledClause, _run
from repro.prolog.terms import deref


def compiled(text):
    head, body = split_clause(parse_term(text))
    return CompiledClause(head, body)


class TestFlattenConjunction:
    def test_nested_chain(self):
        goals = body_goals(parse_term("(a, b), (c, (d, e))"))
        assert [g.name for g in goals] == ["a", "b", "c", "d", "e"]

    def test_single_goal(self):
        goals = body_goals(parse_term("foo(X)"))
        assert len(goals) == 1 and goals[0].name == "foo"

    def test_disjunction_not_flattened(self):
        goals = body_goals(parse_term("a, (b ; c), d"))
        assert [getattr(g, "name", None) for g in goals] == ["a", ";", "d"]

    def test_derefs_bound_variable(self):
        var = Var("G")
        var.ref = Struct(",", (Atom("a"), Atom("b")))
        goals = body_goals(var)
        assert [g.name for g in goals] == ["a", "b"]


class TestSkeletonShape:
    def test_fact_head_is_shared_not_copied(self):
        clause = compiled("rec(1, v1)")
        assert clause.var_names == ()
        assert clause.goals == ()
        # Ground arguments are stored as-is and reused every attempt.
        tags = [tag for tag, _ in clause.head_args]
        assert tags == [1, 1]  # _ARG_CONST

    def test_dense_slots_shared_between_head_and_body(self):
        clause = compiled("p(X, Y) :- q(Y, X, Z)")
        assert clause.var_names == ("X", "Y", "Z")

    def test_repeated_head_variable_uses_slot_spec(self):
        clause = compiled("same(X, X)")
        tags = [tag for tag, _ in clause.head_args]
        assert tags == [0, 2]  # _ARG_FRESH then _ARG_SLOT

    def test_true_body_goals_dropped(self):
        clause = compiled("p(X) :- true, q(X), true")
        assert len(clause.goals) == 1

    def test_head_key_matches_database_fingerprint(self):
        clause = compiled("rec(foo, X) :- q(X)")
        assert clause.head_keys[0] == first_arg_key(Atom("foo"))
        assert compiled("p(X) :- q(X)").head_keys[0] is None
        assert compiled("p :- q").head_keys == ()


class TestUnifyHead:
    def test_success_returns_frame(self):
        clause = compiled("p(X, c) :- q(X)")
        trail = Trail()
        frame = clause.unify_head((Atom("a"), Atom("c")), trail)
        assert frame is not None
        assert deref(frame[0]) == Atom("a")

    def test_failure_leaves_bindings_for_caller_undo(self):
        clause = compiled("p(X, c) :- q(X)")
        trail = Trail()
        goal_var = Var("G")
        mark = trail.mark()
        frame = clause.unify_head((goal_var, Atom("d")), trail)
        assert frame is None
        # The fresh-arg bind before the mismatch is still trailed —
        # identical discipline to a failed plain unify.
        trail.undo_to(mark)
        assert goal_var.ref is None

    def test_unbound_goal_variable_binds_to_fresh_slot(self):
        clause = compiled("p(X) :- q(X)")
        trail = Trail()
        goal_var = Var("G")
        frame = clause.unify_head((goal_var,), trail)
        assert goal_var.ref is frame[0]

    def test_ground_fact_attempt_allocates_nothing(self):
        clause = compiled("rec(1, v1)")
        frame = clause.unify_head((1, Atom("v1")), Trail())
        assert frame == ()


class TestBodyGoals:
    def test_ground_goal_is_shared_identity(self):
        clause = compiled("p(X) :- q(a, b), r(X)")
        (ground_code, ground), (code, const) = clause.goals
        assert ground_code is None  # shared, never rebuilt
        assert ground.name == "q" and const is None
        frame = clause.unify_head((Atom("z"),), Trail())
        assert _run(code, frame) is not _run(code, frame)  # rebuilt per call

    def test_nonground_goal_uses_frame_variables(self):
        clause = compiled("p(X) :- q(f(X, g(X)))")
        trail = Trail()
        frame = clause.unify_head((Var("C"),), trail)
        [(code, _const)] = clause.goals
        goal = _run(code, frame)
        inner = goal.args[0]
        assert inner.args[0] is frame[0]
        assert inner.args[1].args[0] is frame[0]

    def test_nested_ground_subterm_shared_inside_nonground(self):
        clause = compiled("p(X) :- q(X, big(ground, term))")
        [(code, _const)] = clause.goals
        trail = Trail()
        frame = clause.unify_head((Var("C"),), trail)
        first = _run(code, frame)
        second = _run(code, frame)
        assert first.args[1] is second.args[1]


class TestDatabaseCache:
    def test_compiled_program_parallel_to_clauses(self):
        database = Database.from_source("p(1).\np(2) :- q.\nq.")
        program = database.compiled_program(("p", 1))
        assert len(program) == 2
        assert all(isinstance(c, CompiledClause) for c in program)

    def test_cache_reused_within_generation(self):
        database = Database.from_source("p(1).")
        assert database.compiled_program(("p", 1)) is database.compiled_program(
            ("p", 1)
        )

    def test_mutation_invalidates_wholesale(self):
        database = Database.from_source("p(1).")
        before = database.compiled_program(("p", 1))
        from repro.prolog import Clause
        database.add_clause(Clause(parse_term("p(2)"), Atom("true")))
        after = database.compiled_program(("p", 1))
        assert after is not before
        assert len(after) == 2

    def test_compile_clause_helper(self):
        database = Database.from_source("p(X) :- q(X).")
        [clause] = database.clauses(("p", 1))
        skeleton = compile_clause(clause)
        assert skeleton.var_names == ("X",)
