"""The database's per-predicate selection tables (``Database.select``).

Selection is a pure function of a call's argument keys, so the tables
must never be observable: answers and counters after any mutation or
knob change equal those of a freshly built database, and an attached
event bus sees every index probe even after an uninstrumented warm-up.
A mutation drops only its own predicate's table, and no call, however
many distinct keys it brings, adds state of its own.
"""

import pickle
import sys
import threading

import pytest

from repro.observability.events import attach
from repro.prolog import Clause, Database, Engine
from repro.prolog.reader.parser import parse_term
from repro.prolog.terms import Atom
from tests.prolog.plan_oracle import without_scan_plans

SOURCE = """
edge(a, b). edge(b, c). edge(c, d). edge(a, d).
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
color(a, red). color(b, blue). color(c, red). color(d, green).
same(X, Y) :- color(X, C), color(Y, C), X \\== Y.
"""

QUERIES = ("path(a, Y)", "path(X, d)", "same(X, Y)", "color(c, C)")


def outcome(database, query, **engine_options):
    """Answers and counters of ``query`` on a fresh engine."""
    solutions, metrics = Engine(database, **engine_options).run(query)
    return [s.key() for s in solutions], metrics.to_dict()


def fresh_outcomes(source, **database_options):
    database = Database.from_source(source, **database_options)
    return [outcome(database, query) for query in QUERIES]


def count_probes(database):
    """Wrap ``database.matching_for`` to count index probes."""
    probes = []
    original = database.matching_for

    def counting(*args, **kwargs):
        probes.append(args[0])
        return original(*args, **kwargs)

    database.matching_for = counting
    return probes


def programs(database):
    """Every predicate's compiled program, by indicator."""
    return {
        indicator: database.compiled_program(indicator)
        for indicator in database.predicates()
    }


def kept(database, warm):
    """The predicates whose compiled program is still the one in ``warm``."""
    return {
        indicator
        for indicator, program in programs(database).items()
        if program is warm.get(indicator)
    }


class TestSharedCache:
    def test_two_engines_share_one_cache(self):
        database = Database.from_source(SOURCE)
        probes = count_probes(database)
        first = [outcome(database, query) for query in QUERIES]
        warm = programs(database)
        second = [outcome(database, query) for query in QUERIES]
        assert second == first
        # The second engine selected from the first one's tables, and
        # without a bus the VM never takes the interpreter's selection.
        assert kept(database, warm) == set(warm)
        assert probes == []

    def test_cached_answers_match_a_fresh_database(self):
        database = Database.from_source(SOURCE)
        for _ in range(2):
            assert [
                outcome(database, query) for query in QUERIES
            ] == fresh_outcomes(SOURCE)


    def test_concurrent_engines_see_the_sequential_outcomes(self):
        # Serve's thread backend runs one engine per request over one
        # snapshot database: every thread must see exactly the answers
        # and counters of a sequential run while they fill the cache.
        reference = fresh_outcomes(SOURCE)
        database = Database.from_source(SOURCE)
        results, errors = [], []

        def worker():
            try:
                for _ in range(20):
                    results.append(
                        [outcome(database, query) for query in QUERIES]
                    )
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(results) == 80
        assert all(result == reference for result in results)


class TestInvalidation:
    def warm(self):
        database = Database.from_source(SOURCE)
        for query in QUERIES:
            outcome(database, query)
        return database

    def test_add_clause(self):
        database = self.warm()
        database.add_clause(Clause(parse_term("edge(d, e)"), parse_term("true")))
        assert [outcome(database, q) for q in QUERIES] == fresh_outcomes(
            SOURCE + "edge(d, e).\n"
        )

    def test_replace_predicate(self):
        database = self.warm()
        database.replace_predicate(
            ("color", 2),
            [Clause(parse_term(f"color({node}, red)"), parse_term("true"))
             for node in "abcd"],
        )
        edited = SOURCE.replace("blue", "red").replace("green", "red")
        assert [outcome(database, q) for q in QUERIES] == fresh_outcomes(edited)

    def test_remove_predicate(self):
        database = self.warm()
        database.remove_predicate(("color", 2))
        for node, shade in (("a", "red"), ("c", "red")):
            database.add_clause(
                Clause(parse_term(f"color({node}, {shade})"), parse_term("true"))
            )
        kept = SOURCE.replace("color(b, blue). ", "").replace(
            " color(d, green).", ""
        )
        assert [outcome(database, q) for q in QUERIES] == fresh_outcomes(kept)

    def test_copies_share_unedited_programs(self):
        edge = Clause(parse_term("edge(d, e)"), Atom("true"))
        edited = fresh_outcomes(SOURCE + "edge(d, e).\n")
        for make in (Database.copy, Database.snapshot):
            database = self.warm()
            warm = programs(database)
            copy = make(database)
            # A copy starts with every program of the original ...
            assert kept(copy, warm) == set(warm)
            # ... and editing it recompiles only its own edited predicate,
            # leaving the original's programs and answers alone.
            copy.add_clause(edge)
            assert kept(copy, warm) == set(warm) - {("edge", 2)}
            assert [outcome(copy, q) for q in QUERIES] == edited
            assert kept(database, warm) == set(warm)
            assert [outcome(database, q) for q in QUERIES] == fresh_outcomes(SOURCE)
            # Editing the original leaves a copy's answers alone.
            other = make(database)
            database.add_clause(edge)
            assert [outcome(database, q) for q in QUERIES] == edited
            assert [outcome(other, q) for q in QUERIES] == fresh_outcomes(SOURCE)
            assert kept(other, warm) == set(warm)

    def test_pickled_database_ships_without_selection_tables(self):
        database = self.warm()
        cold = pickle.dumps(Database.from_source(SOURCE))
        assert len(pickle.dumps(database)) == len(cold)
        assert len(pickle.dumps(database.snapshot())) == len(
            pickle.dumps(Database.from_source(SOURCE).snapshot())
        )
        restored = pickle.loads(pickle.dumps(database))
        assert [outcome(restored, q) for q in QUERIES] == fresh_outcomes(SOURCE)

    def test_edit_keeps_other_predicates_programs(self):
        database = self.warm()
        warm = programs(database)
        database.add_clause(Clause(parse_term("edge(d, e)"), Atom("true")))
        assert kept(database, warm) == set(warm) - {("edge", 2)}

    @pytest.mark.parametrize(
        "knob, value",
        [("indexing", False), ("index_argument", 1)],
    )
    def test_knob_change(self, knob, value):
        database = self.warm()
        setattr(database, knob, value)
        assert [outcome(database, q) for q in QUERIES] == fresh_outcomes(
            SOURCE, **{knob: value}
        )

    def test_warm_scan_plans_match_the_per_clause_loop(self):
        database = self.warm()
        database.indexing = False
        reference = without_scan_plans(
            Database.from_source(SOURCE, indexing=False)
        )
        assert [outcome(database, q) for q in QUERIES] == [
            outcome(reference, q) for q in QUERIES
        ]

    def test_indexing_change_moves_the_counters(self):
        database = self.warm()
        indexed = [outcome(database, q) for q in QUERIES]
        database.indexing = False
        unindexed = [outcome(database, q) for q in QUERIES]
        assert [answers for answers, _ in unindexed] == [
            answers for answers, _ in indexed
        ]
        assert sum(m["unifications"] for _, m in unindexed) > sum(
            m["unifications"] for _, m in indexed
        )


class TestEvents:
    @pytest.mark.parametrize("query", QUERIES)
    def test_bus_attached_after_warm_up_sees_every_probe(self, query):
        def index_events(compiled):
            database = Database.from_source(SOURCE)
            outcome(database, query, compiled=compiled)  # uninstrumented
            engine = Engine(database, compiled=compiled)
            bus = attach(engine)
            answers = [s.key() for s in engine.ask(query)]
            records = [event.to_record() for event in bus.by_kind("index")]
            for record in records:
                del record["ts"]
            return records, answers, engine.metrics.to_dict()

        vm_events, vm_answers, vm_metrics = index_events(True)
        interpreted_events, answers, metrics = index_events(False)
        assert vm_events and vm_events == interpreted_events
        assert vm_answers == answers
        for counter in ("calls", "unifications", "backtracks", "clause_entries"):
            assert vm_metrics[counter] == metrics[counter]


class TestManyKeys:
    def test_join_sweep_adds_no_per_call_state(self):
        # More distinct all-bound key pairs than the 4,096 entries the
        # old per-call-key cache held before it emptied itself.
        size = 70
        source = "".join(
            f"link({i}, {(i * 3) % size}).\n" for i in range(size)
        ) + "check(X, Y) :- link(X, Y).\n"
        database = Database.from_source(source)
        warm = programs(database)
        engine = Engine(database)
        found = 0
        for left in range(size):
            for right in range(size):
                found += len(engine.ask(f"check({left}, {right})"))
        assert found == size
        assert size * size > 4096
        # One entry per predicate, no key beyond the heads' own, and the
        # programs never rebuilt.
        assert set(database._entries) == {("link", 2), ("check", 2)}
        link = database._entries[("link", 2)]
        for position, candidates, index in link.indexes:
            assert candidates.keys() == index.buckets.keys()
            assert len(candidates) == size
        assert kept(database, warm) == set(warm)


class TestIndexArgument:
    @pytest.mark.parametrize("value", [2, "auto"])
    def test_deleted_modes_rejected(self, value):
        with pytest.raises(ValueError):
            Database(index_argument=value)
        database = Database()
        with pytest.raises(ValueError):
            database.index_argument = value
        assert database.index_argument == "multi"

    def test_first_argument_mode_probes_argument_zero_only(self):
        database = Database.from_source(SOURCE, index_argument=1)
        assert len(database.matching_clauses(parse_term("color(X, red)"))) == 4
        assert len(database.matching_clauses(parse_term("color(a, C)"))) == 1
