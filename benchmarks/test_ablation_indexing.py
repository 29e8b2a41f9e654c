"""Ablation — clause indexing × reordering (§III-A).

The paper: "Clause indexing can have the same effect ... However,
unless the engine always indexes on the proper arguments, reordering
can still be useful here." We measure the cousins sweep under all four
combinations and assert reordering helps with indexing both on and off
(cousins joins on *non-first* arguments, exactly the case indexing
cannot cover).
"""

import pytest

from repro.experiments.harness import count_calls
from repro.prolog import Database, Engine
from repro.programs import family_tree
from repro.reorder.system import Reorderer

QUERY = "cousins(V0, V1)"


@pytest.fixture(scope="module")
def measurements():
    from repro.analysis.modes import parse_mode_string
    from repro.prolog import Database

    results = {}
    for label, indexing, index_argument in (
        ("indexed-first", True, 1),
        ("indexed-multi", True, "multi"),   # §III-A "the proper arguments"
        ("unindexed", False, 1),
    ):
        database = Database(indexing=indexing, index_argument=index_argument)
        database.consult(family_tree.source())
        # The output database inherits the source's indexing discipline.
        program = Reorderer(database).reorder()
        version = program.version_name(
            ("cousins", 2), parse_mode_string("--")
        )
        _, original_metrics = Engine(database).run(QUERY)
        _, reordered_metrics = program.engine().run(f"{version}(V0, V1)")
        results[("original", label)] = (
            original_metrics.calls, original_metrics.unifications,
        )
        results[("reordered", label)] = (
            reordered_metrics.calls, reordered_metrics.unifications,
        )
    return results


class TestShape:
    def test_reordering_helps_with_first_arg_indexing(self, measurements):
        assert (
            measurements[("reordered", "indexed-first")][0]
            < measurements[("original", "indexed-first")][0]
        )

    def test_reordering_helps_with_proper_arg_indexing(self, measurements):
        # The paper's stronger §III-A claim: even an engine that indexes
        # on the proper arguments does not subsume reordering (cousins
        # joins through intermediate variables no index can see: the
        # call count is untouched by any index).
        assert (
            measurements[("reordered", "indexed-multi")][0]
            < measurements[("original", "indexed-multi")][0]
        )

    def test_reordering_helps_without_indexing(self, measurements):
        assert (
            measurements[("reordered", "unindexed")][0]
            < measurements[("original", "unindexed")][0]
        )

    def test_indexing_reduces_unifications_only(self, measurements):
        # Indexing's own contribution is head-unification filtering:
        # calls stay identical, unifications drop.
        indexed_calls, indexed_unifications = measurements[("original", "indexed-first")]
        plain_calls, plain_unifications = measurements[("original", "unindexed")]
        assert indexed_calls == plain_calls
        assert indexed_unifications <= plain_unifications

    def test_pinned_counters(self, measurements):
        # Clause selection is a pure function of the argument keys, so
        # these counts move only when the engine's semantics do.
        assert measurements == {
            ("original", "indexed-first"): (46513, 190814),
            ("reordered", "indexed-first"): (1001, 8015),
            ("original", "indexed-multi"): (46513, 45022),
            ("reordered", "indexed-multi"): (1001, 1027),
            ("original", "unindexed"): (46513, 676774),
            ("reordered", "unindexed"): (1001, 13684),
        }

    def test_report(self, measurements):
        lines = ["ablation: indexing x reordering (cousins(-,-))"]
        for (variant, label), (calls, unifications) in sorted(measurements.items()):
            lines.append(
                f"  {variant:9s} {label:14s} calls {calls:8d}  "
                f"unifications {unifications:8d}"
            )
        print("\n" + "\n".join(lines))
        gain_reorder = (
            measurements[("original", "indexed-first")][0]
            / measurements[("reordered", "indexed-first")][0]
        )
        assert gain_reorder > 5


class TestBenchmarks:
    def test_bench_indexed_reordered(self, benchmark):
        database = family_tree.database(indexing=True)
        program = Reorderer(database).reorder()
        from repro.analysis.modes import parse_mode_string

        version = program.version_name(("cousins", 2), parse_mode_string("--"))
        total = benchmark(
            count_calls, lambda: program.engine(), [f"{version}(V0, V1)"]
        )
        assert total > 0

    def test_bench_indexed_original(self, benchmark):
        database = family_tree.database(indexing=True)
        total = benchmark(count_calls, lambda: Engine(database), [QUERY])
        assert total > 0
