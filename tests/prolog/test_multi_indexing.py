"""Multi-argument indexing and bulk scan plans.

The database's ``index_argument="multi"`` default builds per-position
clause buckets lazily and answers each call from the most selective
bound position; the engine's scan plans bulk-skip fingerprint-rejected
clauses on unnarrowed scans. Both are pure speedups: the engine's
deterministic counters (the paper's cost-model currency) must be
byte-identical with them on, off, or mixed — which is what these tests
pin, along with the ``IndexEvent`` position/selectivity telemetry.
"""

from repro.observability import attach
from repro.prolog import Database, Engine, parse_term
from repro.prolog.database import Clause
from repro.prolog.terms import Atom
from tests.prolog.plan_oracle import without_scan_plans

SOURCE = """
rec(a, one, x).
rec(b, one, y).
rec(c, two, x).
rec(d, two, y).
rec(e, three, x).
"""

COUNTERS = (
    "calls",
    "unifications",
    "clause_entries",
    "backtracks",
    "head_fast_rejects",
)


def counters_for(source, query, plans=True, **db_kwargs):
    database = Database.from_source(source, **db_kwargs)
    if not plans:
        without_scan_plans(database)
    engine = Engine(database)
    solutions = engine.ask(query)
    return (
        {s.key() for s in solutions},
        {key: getattr(engine.metrics, key) for key in COUNTERS},
    )


class TestMultiArgumentSelection:
    def test_second_position_narrows(self):
        database = Database.from_source(SOURCE)
        assert database.index_argument == "multi"
        clauses = database.matching_clauses(parse_term("rec(X, two, Y)"))
        assert len(clauses) == 2

    def test_most_selective_position_wins(self):
        database = Database.from_source(SOURCE)
        # Position 0 narrows to 1 clause, position 2 to 3: position 0
        # must win when both are bound.
        clauses = database.matching_clauses(parse_term("rec(a, M, x)"))
        assert len(clauses) == 1

    def test_unbound_call_scans(self):
        database = Database.from_source(SOURCE)
        assert len(database.matching_clauses(parse_term("rec(X, Y, Z)"))) == 5

    def test_variable_headed_clauses_survive_every_probe(self):
        database = Database.from_source(SOURCE + "rec(V, wild, W).\n")
        clauses = database.matching_clauses(parse_term("rec(a, M, x)"))
        # The var-headed clause can match any key: it must come back
        # alongside the position-0 bucket's single match.
        assert len(clauses) == 2
        seconds = [clause.head.args[1] for clause in clauses]
        assert any(
            isinstance(arg, Atom) and arg.name == "wild" for arg in seconds
        )

    def test_mutation_invalidates_buckets(self):
        database = Database.from_source(SOURCE)
        assert len(database.matching_clauses(parse_term("rec(X, two, Y)"))) == 2
        database.add_clause(
            Clause(parse_term("rec(f, two, z)"), Atom("true"))
        )
        assert len(database.matching_clauses(parse_term("rec(X, two, Y)"))) == 3


class TestCounterNeutrality:
    """Indexing modes and scan plans may never change the charges."""

    def test_multi_vs_first_argument_calls_identical(self):
        # `calls` is the reorderer's currency: identical under any
        # index mode (narrowing changes tries, never calls).
        query = "rec(X, two, Y)"
        answers_multi, multi = counters_for(SOURCE, query)
        answers_first, first = counters_for(SOURCE, query, index_argument=1)
        assert answers_multi == answers_first
        assert multi["calls"] == first["calls"]

    def test_scan_plans_byte_identical_counters(self):
        source = "\n".join(f"edge({i}, {(i + 1) % 200})." for i in range(200))
        source += "\njoin(A, C) :- edge(A, B), edge(B, C).\n"
        database = Database.from_source(source, indexing=False)
        assert database.select(("edge", 2), (5, 6))[4] is not None
        for query in ("join(1, C)", "edge(5, X)", "edge(X, 5)"):
            answers_plan, plan = counters_for(source, query, indexing=False)
            answers_loop, loop = counters_for(
                source, query, plans=False, indexing=False
            )
            assert answers_plan == answers_loop
            assert plan == loop, f"counter drift on {query!r}"

    def test_scan_plans_counters_match_under_early_close(self):
        # The bulk sentinel charge must behave exactly like the old
        # loop when the consumer stops at the first answer.
        source = "\n".join(f"d({i})." for i in range(50))
        unifications = []
        for plans in (True, False):
            database = Database.from_source(source, indexing=False)
            if not plans:
                without_scan_plans(database)
            engine = Engine(database)
            engine.ask("d(25)", limit=1)
            unifications.append(engine.metrics.unifications)
        assert unifications[0] == unifications[1]


class TestIndexEvents:
    def test_hit_event_carries_position_and_selectivity(self):
        engine = Engine.from_source(SOURCE)
        bus = attach(engine)
        engine.ask("rec(X, two, Y)")
        hits = [e for e in bus.by_kind("index") if e.hit]
        assert hits
        event = hits[0]
        assert event.position == 1
        assert event.selectivity == 2 / 5
        record = event.to_record()
        assert record["position"] == 1

    def test_unbound_call_reports_miss(self):
        engine = Engine.from_source(SOURCE)
        bus = attach(engine)
        engine.ask("rec(X, Y, Z)")
        misses = [e for e in bus.by_kind("index") if not e.hit]
        assert misses and misses[0].position is None
