"""Unit tests for empirical cost calibration (§I-E / §VIII)."""

import pytest

from repro.analysis.calibration import CalibrationOptions, EmpiricalCalibrator
from repro.analysis.declarations import Declarations
from repro.analysis.modes import parse_mode_string
from repro.prolog import Database
from repro.robustness import Budget


def mode(text):
    return parse_mode_string(text)


FACTS = """
p(a). p(b). p(c). p(d).
q(a, 1). q(b, 2). q(c, 3).
join(X, N) :- p(X), q(X, N).
"""


class TestConstantPool:
    def test_collected_from_facts(self):
        calibrator = EmpiricalCalibrator(Database.from_source(FACTS))
        assert set(calibrator.constants) >= {"a", "b", "c", "d"}

    def test_explicit_pool(self):
        calibrator = EmpiricalCalibrator(
            Database.from_source(FACTS), constants=["a"]
        )
        assert calibrator.constants == ["a"]


class TestSampling:
    def test_open_mode_single_query(self):
        calibrator = EmpiricalCalibrator(Database.from_source(FACTS))
        assert calibrator.sample_queries(("p", 1), mode("-")) == ["p(V0)"]

    def test_bound_mode_samples_constants(self):
        calibrator = EmpiricalCalibrator(
            Database.from_source(FACTS), CalibrationOptions(max_samples=3)
        )
        queries = calibrator.sample_queries(("p", 1), mode("+"))
        assert len(queries) == 3
        assert all(q.startswith("p(") for q in queries)

    def test_deterministic(self):
        database = Database.from_source(FACTS)
        first = EmpiricalCalibrator(database).sample_queries(("q", 2), mode("+-"))
        second = EmpiricalCalibrator(database).sample_queries(("q", 2), mode("+-"))
        assert first == second


class TestMeasurement:
    def test_open_fact_predicate(self):
        calibrator = EmpiricalCalibrator(Database.from_source(FACTS))
        stats = calibrator.measure(("p", 1), mode("-"))
        assert stats.cost == 1.0
        assert stats.solutions == 4.0
        assert stats.prob == 1.0

    def test_rule_cost_includes_subgoals(self):
        calibrator = EmpiricalCalibrator(Database.from_source(FACTS))
        stats = calibrator.measure(("join", 2), mode("--"))
        assert stats.cost > 1.0
        assert stats.solutions == 3.0

    def test_bound_mode_probability(self):
        calibrator = EmpiricalCalibrator(
            Database.from_source(FACTS),
            CalibrationOptions(max_samples=4),
            constants=["a", "b", "c", "zzz"],
        )
        stats = calibrator.measure(("p", 1), mode("+"))
        assert 0.0 < stats.prob <= 1.0

    def test_divergent_mode_returns_none(self):
        source = "len([], 0). len([_ | T], N) :- len(T, M), N is M + 1."
        calibrator = EmpiricalCalibrator(
            Database.from_source(source),
            CalibrationOptions(call_budget=200, max_depth=100),
        )
        # len/2 in mode (-,-) enumerates forever.
        assert calibrator.measure(("len", 2), mode("--")) is None
        assert calibrator.failures


    COUNT = "count(0). count(N) :- N > 0, M is N - 1, count(M)."

    def count_calibrator(self, call_budget):
        # Four samples of 91 to 100 calls each.
        return EmpiricalCalibrator(
            Database.from_source(self.COUNT),
            CalibrationOptions(call_budget=call_budget),
            constants=["30", "31", "32", "33"],
        )

    def test_call_cap_is_per_sample(self):
        stats = self.count_calibrator(150).measure(("count", 1), mode("+"))
        assert stats is not None and stats.cost > 90
        assert self.count_calibrator(50).measure(("count", 1), mode("+")) is None

    def test_pair_deadline_reaches_every_sample(self):
        calibrator = self.count_calibrator(150)
        expired = Budget(deadline=0.0)
        assert calibrator.measure(("count", 1), mode("+"), budget=expired) is None
        assert calibrator.failures == [(("count", 1), mode("+"))]


class TestCalibrate:
    def test_fills_declarations(self):
        calibrator = EmpiricalCalibrator(Database.from_source(FACTS))
        declarations = calibrator.calibrate()
        assert declarations.cost_for(("join", 2), mode("--")) is not None
        assert declarations.cost_for(("p", 1), mode("+")) is not None

    def test_existing_declarations_kept(self):
        database = Database.from_source(
            ":- cost(p/1, [-], 99, 0.5).\n" + FACTS
        )
        declared = Declarations.from_database(database)
        calibrator = EmpiricalCalibrator(database)
        result = calibrator.calibrate(declarations=declared)
        assert result.cost_for(("p", 1), mode("-")).cost == 99.0

    def test_feeds_reorderer(self):
        from repro.prolog import Engine
        from repro.reorder import Reorderer

        source = """
        wide(1). wide(2). wide(3). wide(4). wide(5). wide(6).
        narrow(2).
        both(X) :- wide(X), narrow(X).
        """
        database = Database.from_source(source)
        declarations = EmpiricalCalibrator(database).calibrate()
        program = Reorderer(database, declarations=declarations).reorder()
        version = program.version_name(("both", 1), mode("-"))
        clause = program.database.clauses((version, 1))[0]
        assert str(clause.body).startswith("narrow")
        original = sorted(s.key() for s in Engine(database).ask("both(X)"))
        new = sorted(s.key() for s in program.engine().ask("both(X)"))
        assert original == new
