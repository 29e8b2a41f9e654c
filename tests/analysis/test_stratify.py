"""Stratum eligibility: which recursion components may run bottom-up.

The semi-naive backend is only sound and terminating on the
datalog-like fragment; :func:`repro.analysis.stratify.stratify` draws
that line. These tests pin the refusals — non-range-restricted heads,
negation into a component's own recursion, builtins, control
constructs, partially instantiated structure arguments, undefined and
transitively ineligible callees — and the acceptances (ground structure
arguments, stratified negation, mutual recursion).
"""

from repro.analysis.stratify import analyze_clause, stratify
from repro.prolog import Database


def strat(source):
    return stratify(Database.from_source(source))


class TestClauseAnalysis:
    def test_fact_decomposes_empty(self):
        database = Database.from_source("p(a, b).")
        [clause] = database.clauses(("p", 2))
        info = analyze_clause(clause)
        assert info.is_fact and not info.reasons

    def test_rule_splits_positive_and_negative_literals(self):
        database = Database.from_source(
            "p(X) :- q(X), \\+ r(X).\nq(a).\nr(b)."
        )
        [clause] = database.clauses(("p", 1))
        info = analyze_clause(clause)
        assert not info.reasons
        assert [g.name for g in info.positives] == ["q"]
        assert [g.name for g in info.negatives] == ["r"]

    def test_cut_is_refused(self):
        database = Database.from_source("p(X) :- q(X), !.\nq(a).")
        [clause] = database.clauses(("p", 1))
        assert any("control" in r for r in analyze_clause(clause).reasons)

    def test_builtin_is_refused(self):
        database = Database.from_source("p(X) :- q(X), X > 1.\nq(2).")
        [clause] = database.clauses(("p", 1))
        assert any("builtin" in r for r in analyze_clause(clause).reasons)


class TestEligibility:
    def test_recursive_datalog_stratum_is_eligible(self):
        stratification = strat(
            """
            edge(a, b). edge(b, c).
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- edge(X, Y), path(Y, Z).
            """
        )
        assert stratification.eligible(("path", 2))
        info = stratification.info(("path", 2))
        assert info.recursive

    def test_mutual_recursion_is_one_eligible_stratum(self):
        stratification = strat(
            """
            base(a).
            p(X) :- base(X).
            p(X) :- q(X).
            q(X) :- p(X).
            """
        )
        info = stratification.info(("p", 1))
        assert info.eligible and info.recursive
        assert info.predicates == (("p", 1), ("q", 1))
        assert stratification.stratum_index(("p", 1)) == stratification.stratum_index(("q", 1))

    def test_non_range_restricted_head_is_refused(self):
        stratification = strat("p(X, Y) :- q(X).\nq(a).")
        info = stratification.info(("p", 2))
        assert not info.eligible
        assert any("range-restricted" in r for r in info.reasons)

    def test_non_range_restricted_negation_is_refused(self):
        stratification = strat(
            "p(X) :- q(X), \\+ r(Y).\nq(a).\nr(b)."
        )
        info = stratification.info(("p", 1))
        assert not info.eligible
        assert any("range-restricted" in r for r in info.reasons)

    def test_negation_into_own_component_is_refused(self):
        stratification = strat(
            """
            q(a).
            p(X) :- q(X), \\+ p(X).
            """
        )
        info = stratification.info(("p", 1))
        assert not info.eligible
        assert any("unstratifiable" in r for r in info.reasons)

    def test_negation_into_mutual_recursion_is_refused(self):
        stratification = strat(
            """
            q(a).
            p(X) :- q(X), \\+ r(X).
            r(X) :- p(X).
            """
        )
        info = stratification.info(("p", 1))
        assert not info.eligible
        assert any("unstratifiable" in r for r in info.reasons)

    def test_stratified_negation_is_eligible(self):
        stratification = strat(
            """
            node(a). node(b).
            edge(a, b).
            reach(X) :- edge(a, X).
            unreached(X) :- node(X), \\+ reach(X).
            """
        )
        info = stratification.info(("unreached", 1))
        assert info.eligible

    def test_partially_instantiated_structure_is_refused(self):
        # nat(s(X)) builds new terms every round: non-datalog.
        stratification = strat("nat(z).\nnat(s(X)) :- nat(X).")
        info = stratification.info(("nat", 1))
        assert not info.eligible
        assert any("partially instantiated" in r for r in info.reasons)

    def test_ground_structure_arguments_are_fine(self):
        stratification = strat("p(f(a)).\np(g(a, b)).\nq(X) :- p(X).")
        assert stratification.eligible(("q", 1))

    def test_undefined_callee_is_refused(self):
        stratification = strat("p(X) :- ghost(X).")
        info = stratification.info(("p", 1))
        assert not info.eligible
        assert any("undefined" in r for r in info.reasons)

    def test_ineligibility_is_transitive(self):
        stratification = strat(
            """
            base(1).
            shifted(Y) :- base(X), Y is X + 1.
            user(Y) :- shifted(Y).
            """
        )
        assert not stratification.eligible(("shifted", 1))
        info = stratification.info(("user", 1))
        assert not info.eligible
        assert any("depends on ineligible" in r for r in info.reasons)

    def test_strata_come_callees_first(self):
        stratification = strat(
            """
            edge(a, b).
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- edge(X, Y), path(Y, Z).
            """
        )
        assert stratification.stratum_index(("edge", 2)) < stratification.stratum_index(("path", 2))

    def test_fact_and_rule_strata(self):
        stratification = strat(
            """
            edge(a, b). edge(b, c).
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- edge(X, Y), path(Y, Z).
            """
        )
        edge = stratification.info(("edge", 2))
        path = stratification.info(("path", 2))
        assert edge.eligible and not edge.recursive
        assert path.eligible and path.recursive
