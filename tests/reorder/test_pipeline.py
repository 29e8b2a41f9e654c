"""Tests for the staged pipeline's incremental AnalysisContext.

These pin the invalidation contract: a warm re-reorder over an
unchanged database is a pure cache replay; an edit recomputes exactly
the edited predicate's SCC plus its transitive callers; and either way
the output is byte-identical to a cold run.
"""

import json

import pytest

from repro.programs import REGISTRY
from repro.prolog import Database, Engine
from repro.reorder import AnalysisContext, Reorderer, ReorderOptions
from repro.reorder.pipeline.context import ANALYSIS_STAGES, BUILD_STAGE
from repro.robustness import faults

SMALL = """
p(X) :- q(X), r(X).
q(1). q(2).
r(2).
s(X) :- q(X).
"""


def fingerprint(program):
    """Byte-comparable rendering of a reorder result."""
    return (
        json.dumps(program.report.to_dict(), sort_keys=True),
        program.source(),
    )


def reorder_with(database, context, **options):
    return Reorderer(
        database, ReorderOptions(**options), context=context
    ).reorder()


class TestWarmReplay:
    def test_unchanged_database_is_all_hits(self):
        database = Database.from_source(SMALL)
        context = AnalysisContext(database)
        cold = reorder_with(database, context)
        context.reset_counters()
        warm = reorder_with(database, context)
        assert not context.misses
        for stage in ANALYSIS_STAGES:
            assert context.hits[stage] == 1
        assert context.hits[BUILD_STAGE] == len(database.predicates())
        assert context.last_dirty == frozenset()
        assert context.last_affected == frozenset()
        assert fingerprint(warm) == fingerprint(cold)

    def test_warm_matches_cold_on_paper_programs(self):
        for name in ("family_tree", "meal"):
            database = Database.from_source(REGISTRY[name].source())
            context = AnalysisContext(database)
            cold = reorder_with(database, context)
            warm = reorder_with(database, context)
            assert fingerprint(warm) == fingerprint(cold), name


class TestIncrementalInvalidation:
    def edit(self, database, indicator):
        """A no-op edit: replace a predicate with its own clauses,
        which still bumps the predicate's generation mark."""
        database.replace_predicate(indicator, database.clauses(indicator))

    def test_edit_recomputes_only_scc_and_callers(self):
        database = Database.from_source(SMALL)
        context = AnalysisContext(database)
        reorder_with(database, context)
        self.edit(database, ("r", 1))
        context.reset_counters()
        incremental = reorder_with(database, context)
        # r/1 was edited; p/1 calls it; q/2 and s/1 are untouched.
        assert context.last_dirty == frozenset({("r", 1)})
        assert context.last_affected == frozenset({("r", 1), ("p", 1)})
        assert context.misses[BUILD_STAGE] == 2
        assert context.hits[BUILD_STAGE] == 2
        # The incremental result equals a cold run over an equal program.
        cold = Reorderer(Database.from_source(SMALL)).reorder()
        assert fingerprint(incremental) == fingerprint(cold)

    def test_edit_matches_cold_on_family_tree(self):
        source = REGISTRY["family_tree"].source()
        database = Database.from_source(source)
        context = AnalysisContext(database)
        reorder_with(database, context)
        self.edit(database, ("wife", 2))
        context.reset_counters()
        incremental = reorder_with(database, context)
        assert context.last_dirty == frozenset({("wife", 2)})
        assert ("wife", 2) in context.last_affected
        # Some predicates stayed cached: the closure is a strict subset.
        defined_affected = [
            indicator
            for indicator in context.last_affected
            if database.defines(indicator)
        ]
        assert context.misses[BUILD_STAGE] == len(defined_affected)
        assert context.hits[BUILD_STAGE] == len(database.predicates()) - len(
            defined_affected
        )
        assert context.hits[BUILD_STAGE] > 0
        cold = Reorderer(Database.from_source(source)).reorder()
        assert fingerprint(incremental) == fingerprint(cold)

    def test_options_change_invalidates_builds_and_analyses(self):
        database = Database.from_source(SMALL)
        context = AnalysisContext(database)
        reorder_with(database, context)
        context.reset_counters()
        reorder_with(database, context, runtime_tests=True)
        # Different knobs rerun everything, as a program edit does.
        for stage in ANALYSIS_STAGES:
            assert context.misses[stage] == 1
            assert stage not in context.hits
        assert context.misses[BUILD_STAGE] == len(database.predicates())
        assert BUILD_STAGE not in context.hits

    def test_options_change_matches_cold_warnings(self):
        # Mode inference reports each warning once per analysis object:
        # a warm run under new options must not reuse one that already
        # reported them.
        source = """
        parent(a, b). parent(b, c).
        anc(X, Y) :- anc(X, Z), parent(Z, Y).
        anc(X, Y) :- parent(X, Y).
        """
        database = Database.from_source(source)
        context = AnalysisContext(database)
        reorder_with(database, context)
        warm = reorder_with(database, context, runtime_tests=True)
        cold = reorder_with(Database.from_source(source), None, runtime_tests=True)
        assert warm.source() == cold.source()
        assert warm.report.warnings == cold.report.warnings
        assert len(cold.report.warnings) == 5


#: program -> (edited predicate, predicates, dirty, affected, build
#: hits, build misses) of one no-op edit and re-reorder.
EDIT_COUNTERS = {
    "family_tree": (("wife", 2), 15, 1, 11, 4, 11),
    "corporate": (("employee", 2), 15, 1, 5, 10, 5),
    "meal": (("meal", 3), 4, 1, 1, 3, 1),
    "geography": (("borders", 2), 9, 1, 4, 5, 4),
}


class TestEditCounters:
    @pytest.mark.parametrize("name", sorted(EDIT_COUNTERS))
    def test_edit_rebuilds_exactly_the_closure(self, name):
        edited, predicates, dirty, affected, hits, misses = EDIT_COUNTERS[name]
        source = REGISTRY[name].source()
        database = Database.from_source(source)
        context = AnalysisContext(database)
        reorder_with(database, context)
        database.replace_predicate(edited, database.clauses(edited))
        context.reset_counters()
        incremental = reorder_with(database, context)
        assert len(database.predicates()) == predicates
        assert len(context.last_dirty) == dirty
        assert len(context.last_affected) == affected
        assert context.hits.get(BUILD_STAGE, 0) == hits
        assert context.misses.get(BUILD_STAGE, 0) == misses
        cold = Reorderer(Database.from_source(source)).reorder()
        assert fingerprint(incremental) == fingerprint(cold)


#: ``hop/2`` is the third predicate built (base, link, hop, top).
DEGRADE = """
:- entry(top/2).
base(a, b). base(b, c). base(c, d). base(d, e).
link(X, Y) :- base(X, Y).
hop(X, Z) :- link(X, Y), link(Y, Z).
top(X, Z) :- hop(X, Z), base(Z, _).
"""


def reorder_under_fault(database, context=None):
    faults.install_from_spec("phase.build:raise@3")
    try:
        return Reorderer(database, context=context).reorder()
    finally:
        faults.clear()


class TestDegradeDuringWarmRun:
    def test_callers_of_a_degraded_predicate_rebuild(self):
        database = Database.from_source(DEGRADE)
        context = AnalysisContext(database)
        reorder_with(database, context)
        warm = reorder_under_fault(database, context)
        assert list(warm.report.degraded) == [("hop", 2)]
        engine = Engine(Database.from_source(warm.source()))
        assert [str(s["Z"]) for s in engine.ask("top(a, Z)")] == ["c"]
        cold = reorder_under_fault(Database.from_source(DEGRADE))
        assert fingerprint(warm) == fingerprint(cold)

    def test_builds_made_around_a_degrade_are_not_cached(self):
        database = Database.from_source(DEGRADE)
        context = AnalysisContext(database)
        reorder_under_fault(database, context)
        healthy = reorder_with(database, context)
        cold = Reorderer(Database.from_source(DEGRADE)).reorder()
        assert fingerprint(healthy) == fingerprint(cold)


class TestObservability:
    def test_counters_record_shape(self):
        database = Database.from_source(SMALL)
        context = AnalysisContext(database)
        reorder_with(database, context)
        record = context.counters_record()
        assert record["type"] == "cache"
        assert record["misses"][BUILD_STAGE] == len(database.predicates())
        assert record["dirty"] == sorted(["p/1", "q/1", "r/1", "s/1"])
        assert record["affected"] == record["dirty"]


class TestFacadeSafety:
    def test_swapped_analysis_disables_caching(self):
        # The ablation benchmarks overwrite analysis attributes on the
        # facade before calling reorder(); the cache must silently stand
        # aside rather than replay results for the wrong model.
        database = Database.from_source(SMALL)
        context = AnalysisContext(database)
        reorder_with(database, context)
        context.reset_counters()
        reorderer = Reorderer(database, context=context)
        fresh = AnalysisContext(database).refresh(ReorderOptions())
        reorderer.model = fresh.model
        reorderer.reorder()
        assert BUILD_STAGE not in context.hits
        assert BUILD_STAGE not in context.misses

    def test_context_requires_matching_database(self):
        first = Database.from_source(SMALL)
        second = Database.from_source(SMALL)
        context = AnalysisContext(first)
        try:
            Reorderer(second, context=context)
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError for foreign context")
