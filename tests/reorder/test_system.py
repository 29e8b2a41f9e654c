"""Unit/behavioural tests for the whole reordering system (Fig. 3)."""

import pytest

from repro.analysis.modes import parse_mode_string
from repro.prolog import Database, Engine
from repro.reorder.pipeline.types import MAX_VERSIONS
from repro.reorder.system import ReorderOptions, Reorderer


GRANDMOTHER = """
wife(john, jane). wife(bob, sue). wife(al, meg). wife(tom, pat).
mother(john, joan). mother(ann, joan). mother(bob, meg).
mother(sue, pat). mother(jane, pat). mother(joan, pat).
girl(jan). girl(deb).
female(X) :- girl(X).
female(X) :- wife(_, X).
grandmother(GC, GM) :- grandparent(GC, GM), female(GM).
grandparent(GC, GP) :- parent(P, GP), parent(GC, P).
parent(C, P) :- mother(C, P).
parent(C, P) :- mother(C, M), wife(P, M).
"""


def reorder(source, **options):
    return Reorderer(Database.from_source(source), ReorderOptions(**options)).reorder()


def mode(text):
    return parse_mode_string(text)


def answers(engine, query):
    return sorted(s.key() for s in engine.ask(query))


class TestSectionIDExample:
    """The paper's §I-D motivating example must come out as described."""

    def test_female_moved_first_in_uu(self):
        program = reorder(GRANDMOTHER)
        version = program.version_name(("grandmother", 2), mode("--"))
        clauses = program.database.clauses((version, 2))
        first_goal = str(clauses[0].body).split(",")[0]
        assert "female" in first_goal

    def test_set_equivalent(self):
        program = reorder(GRANDMOTHER)
        original = Engine(Database.from_source(GRANDMOTHER))
        assert answers(original, "grandmother(X, Y)") == answers(
            program.engine(), "grandmother(X, Y)"
        )

    def test_cheaper(self):
        program = reorder(GRANDMOTHER)
        _, original_metrics = Engine(Database.from_source(GRANDMOTHER)).run(
            "grandmother(X, Y)"
        )
        version = program.version_name(("grandmother", 2), mode("--"))
        _, new_metrics = program.engine().run(f"{version}(X, Y)")
        assert new_metrics.calls < original_metrics.calls


class TestVersionsAndDispatchers:
    def test_versions_per_mode(self):
        program = reorder(GRANDMOTHER)
        for mode_text in ("--", "-+", "+-", "++"):
            assert program.version_name(("grandmother", 2), mode(mode_text))

    def test_dispatcher_under_original_name(self):
        program = reorder(GRANDMOTHER)
        assert program.database.defines(("grandmother", 2))
        engine = program.engine()
        assert engine.succeeds("grandmother(X, Y)")

    def test_dedup_merges_identical(self):
        # wife/2 is a fact predicate: all four versions identical, so the
        # original name survives with no dispatcher.
        program = reorder(GRANDMOTHER)
        assert program.version_name(("wife", 2), mode("--")) == "wife"
        clauses = program.database.clauses(("wife", 2))
        assert all(clause.is_fact for clause in clauses)

    def test_report_mentions_reordering(self):
        program = reorder(GRANDMOTHER)
        summary = program.report.summary()
        assert "goals reordered" in summary

    def test_source_reparses_and_runs(self):
        program = reorder(GRANDMOTHER)
        rebuilt = Engine(Database.from_source(program.source()))
        assert answers(rebuilt, "grandmother(X, Y)") == answers(
            program.engine(), "grandmother(X, Y)"
        )


class TestOptions:
    def test_no_specialize_keeps_names(self):
        program = reorder(GRANDMOTHER, specialize=False)
        assert program.database.defines(("grandmother", 2))
        clauses = program.database.clauses(("grandmother", 2))
        # No dispatcher: the clauses are the reordered originals.
        assert len(clauses) == 1
        assert "grandparent" in str(clauses[0].body)

    def test_no_goal_reordering(self):
        program = reorder(GRANDMOTHER, reorder_goals=False, specialize=False)
        clauses = program.database.clauses(("grandmother", 2))
        body_text = str(clauses[0].body)
        assert body_text.index("grandparent") < body_text.index("female")

    def test_no_clause_reordering(self):
        source = "f(X) :- slow(X). f(X) :- quick(X). slow(1). quick(2)."
        with_reorder = reorder(source, specialize=False)
        without = reorder(source, specialize=False, reorder_clauses=False)
        original_heads = [
            str(c.body) for c in Database.from_source(source).clauses(("f", 1))
        ]
        kept = [str(c.body) for c in without.database.clauses(("f", 1))]
        assert kept == original_heads

    @pytest.mark.parametrize("unfold_rounds", [0, 1])
    def test_output_keeps_the_source_indexing(self, unfold_rounds):
        database = Database.from_source(
            "p(1). q(X) :- p(X). r(X) :- q(X), p(X).",
            indexing=False, index_argument=1,
        )
        options = ReorderOptions(unfold_rounds=unfold_rounds)
        output = Reorderer(database, options).reorder().database
        assert (output.indexing, output.index_argument) == (False, 1)

    def test_max_versions_cap(self):
        # Arity 5 => 32 legal modes > MAX_VERSIONS => reordered in place,
        # although the modes would order the chain differently.
        assert 2 ** 5 > MAX_VERSIONS
        source = (
            "t(A, B, C, D, E) :- r(A, B), r(B, C), r(C, D), r(D, E). "
            "r(1, 2). r(2, 3). r(3, 4). r(4, 5). r(2, 1)."
        )
        program = reorder(source)
        assert sorted(program.database.predicates()) == [("r", 2), ("t", 5)]
        assert len(program.database.clauses(("t", 5))) == 1


class TestSafety:
    def test_side_effect_order_preserved(self):
        source = """
        g(1). g(2).
        loud(X) :- g(X), write(X), g(Y), Y > X.
        """
        program = reorder(source)
        original = Engine(Database.from_source(source))
        new = program.engine()
        original.count_solutions("loud(X)")
        new.count_solutions("loud(X)")
        assert original.output_text() == new.output_text()

    def test_cut_semantics_preserved(self):
        source = """
        g(1). g(2). h(2).
        first(X) :- g(X), h(X), !.
        first(0).
        """
        program = reorder(source)
        original = Engine(Database.from_source(source))
        assert answers(original, "first(X)") == answers(
            program.engine(), "first(X)"
        )

    def test_failure_driven_loop_output(self):
        source = """
        t(1). t(2). t(3).
        show :- t(X), write(X), nl, fail.
        show.
        """
        program = reorder(source)
        original = Engine(Database.from_source(source))
        original.succeeds("show")
        new = program.engine()
        new.succeeds("show")
        assert original.output_text() == new.output_text()

    def test_var_test_not_crossed(self):
        source = """
        g(1).
        probe(X, R) :- var(X), g(X), R = was_var.
        """
        program = reorder(source)
        original = Engine(Database.from_source(source))
        assert answers(original, "probe(X, R)") == answers(
            program.engine(), "probe(X, R)"
        )
        assert not program.engine().succeeds("probe(1, R)")

    def test_negation_results_preserved(self):
        source = """
        p(1). p(2). q(2).
        lone(X) :- p(X), \\+ q(X).
        """
        program = reorder(source)
        original = Engine(Database.from_source(source))
        assert answers(original, "lone(X)") == answers(program.engine(), "lone(X)")

    def test_warnings_propagated(self):
        source = """
        walk(X, Y) :- step(X, Y).
        walk(X, Z) :- step(X, Y), walk(Y, Z).
        step(a, b). step(b, c).
        """
        program = reorder(source)
        assert any("walk" in w for w in program.report.warnings)
