"""The database's one clause-selection cache (``Database.select``).

Selection is a pure function of a call's argument keys, so a cached
answer must never be observable: answers and counters after any
mutation or knob change equal those of a freshly built database, and an
attached event bus sees every index probe even on a warm cache.
"""

import sys
import threading

import pytest

from repro.observability.events import attach
from repro.prolog import Clause, Database, Engine
from repro.prolog.reader.parser import parse_term

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


class TestSharedCache:
    def test_two_engines_share_one_cache(self):
        database = Database.from_source(SOURCE)
        probes = count_probes(database)
        first = [outcome(database, query) for query in QUERIES]
        warm_probes = len(probes)
        assert warm_probes > 0
        second = [outcome(database, query) for query in QUERIES]
        assert second == first
        assert len(probes) == warm_probes  # every selection was cached

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
        assert database._selections
        return database

    def test_add_clause(self):
        database = self.warm()
        database.add_clause(Clause(parse_term("edge(d, e)"), parse_term("true")))
        assert not database._selections
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
        assert not database._selections
        edited = SOURCE.replace("blue", "red").replace("green", "red")
        assert [outcome(database, q) for q in QUERIES] == fresh_outcomes(edited)

    def test_remove_predicate(self):
        database = self.warm()
        database.remove_predicate(("color", 2))
        assert not database._selections
        for node, shade in (("a", "red"), ("c", "red")):
            database.add_clause(
                Clause(parse_term(f"color({node}, {shade})"), parse_term("true"))
            )
        kept = SOURCE.replace("color(b, blue). ", "").replace(
            " color(d, green).", ""
        )
        assert [outcome(database, q) for q in QUERIES] == fresh_outcomes(kept)

    def test_copies_start_empty(self):
        database = self.warm()
        assert not database.copy()._selections
        assert not database.snapshot()._selections
        assert database._selections

    @pytest.mark.parametrize(
        "knob, value",
        [("indexing", False), ("index_argument", 1), ("scan_plans", False)],
    )
    def test_knob_change(self, knob, value):
        database = self.warm()
        setattr(database, knob, value)
        assert not database._selections
        assert [outcome(database, q) for q in QUERIES] == fresh_outcomes(
            SOURCE, **{knob: value}
        )

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
            warm = dict(database._selections)
            engine = Engine(database, compiled=compiled)
            bus = attach(engine)
            engine.ask(query)
            # The instrumented run neither read nor filled the cache.
            assert database._selections == warm
            records = [event.to_record() for event in bus.by_kind("index")]
            for record in records:
                del record["ts"]
            return records, warm

        vm_events, vm_warm = index_events(True)
        interpreted_events, _ = index_events(False)
        assert vm_warm  # the VM's warm-up filled the cache
        assert vm_events and vm_events == interpreted_events


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
