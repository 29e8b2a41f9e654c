"""Stress: reordering a large, layered synthetic program.

Builds a deterministic program with dozens of predicates across several
layers (fact tables, joins over them, joins over the joins) and checks
the reorderer handles it whole: reasonable wall-time, warnings only
where expected, and set-equivalence on sampled queries.
"""

import time

import pytest

from repro.prolog import Database, Engine
from repro.reorder.system import Reorderer
from repro.robustness import Budget


def build_large_source(
    fact_tables: int = 12,
    facts_per_table: int = 40,
    joins: int = 20,
    top_rules: int = 8,
) -> str:
    lines = []
    constants = [f"k{i}" for i in range(25)]
    for table in range(fact_tables):
        for row in range(facts_per_table):
            a = constants[(row * 3 + table) % len(constants)]
            b = constants[(row * 7 + table * 5) % len(constants)]
            lines.append(f"t{table}({a}, {b}).")
    # Layer 1: binary joins between fact tables, tests-last phrasing.
    for join in range(joins):
        left = join % fact_tables
        right = (join * 3 + 1) % fact_tables
        lines.append(
            f"j{join}(X, Z) :- t{left}(X, Y), t{right}(Y, Z), X \\== Z."
        )
    # Layer 2: joins over layer-1 predicates.
    for rule in range(top_rules):
        first = rule % joins
        second = (rule * 5 + 2) % joins
        lines.append(f"top{rule}(A, C) :- j{first}(A, B), j{second}(B, C).")
    return "\n".join(lines)


@pytest.fixture(scope="module")
def large_setup():
    source = build_large_source()
    database = Database.from_source(source)
    started = time.monotonic()
    program = Reorderer(database).reorder()
    elapsed = time.monotonic() - started
    return database, program, elapsed


class TestScale:
    def test_reorders_in_reasonable_time(self, large_setup):
        _, _, elapsed = large_setup
        assert elapsed < 60, f"reordering took {elapsed:.1f}s"

    def test_all_predicates_survive(self, large_setup):
        database, program, _ = large_setup
        for indicator in database.predicates():
            assert program.database.defines(indicator), indicator

    def test_sampled_equivalence(self, large_setup):
        database, program, _ = large_setup
        for rule in (0, 3, 7):
            query = f"top{rule}(A, C)"
            original = sorted(
                s.key() for s in Engine(database, budget=Budget(calls=2_000_000)).ask(query)
            )
            reordered = sorted(
                s.key()
                for s in program.engine(budget=Budget(calls=2_000_000)).ask(query)
            )
            assert original == reordered, query

    def test_reordering_not_slower_overall(self, large_setup):
        database, program, _ = large_setup
        original_total = reordered_total = 0
        for rule in range(8):
            query = f"top{rule}(A, C)"
            _, original = Engine(database, budget=Budget(calls=2_000_000)).run(query)
            _, reordered = program.engine(budget=Budget(calls=2_000_000)).run(query)
            original_total += original.calls
            reordered_total += reordered.calls
        assert reordered_total <= original_total * 1.1

    def test_bound_queries_equivalent(self, large_setup):
        database, program, _ = large_setup
        for constant in ("k0", "k7", "k24"):
            query = f"top1({constant}, C)"
            original = sorted(
                s.key() for s in Engine(database, budget=Budget(calls=2_000_000)).ask(query)
            )
            reordered = sorted(
                s.key()
                for s in program.engine(budget=Budget(calls=2_000_000)).ask(query)
            )
            assert original == reordered, query
