"""Tests for batched/parallel calibration (``measure_pairs``) and the
failure-surfacing channels added with the pipeline refactor."""

from repro.analysis.calibration import CalibrationOptions, EmpiricalCalibrator
from repro.analysis.modes import all_input_modes, parse_mode_string
from repro.prolog import Database


def mode(text):
    return parse_mode_string(text)


FACTS = """
p(a). p(b). p(c). p(d).
q(a, 1). q(b, 2). q(c, 3).
join(X, N) :- p(X), q(X, N).
"""

DIVERGING = """
loop(X) :- loop(X).
ok(a). ok(b).
"""

OPERATORS = """
:- op(700, xfx, ===>).
a ===> b. b ===> c.
reach(X, Y) :- X ===> Y.
"""


def all_pairs(database):
    return [
        (indicator, m)
        for indicator in database.predicates()
        for m in all_input_modes(indicator[1])
    ]


class TestMeasurePairs:
    def test_serial_equals_parallel(self):
        database = Database.from_source(FACTS)
        pairs = all_pairs(database)
        serial = EmpiricalCalibrator(database)
        parallel = EmpiricalCalibrator(Database.from_source(FACTS))
        assert serial.measure_pairs(pairs) == parallel.measure_pairs(
            pairs, jobs=2
        )
        assert serial.failures == parallel.failures

    def test_worker_source_declares_the_programs_operators(self):
        # Workers re-read this text with the standard operator table.
        database = Database.from_source(OPERATORS)
        source = EmpiricalCalibrator(database)._program_source()
        assert Database.from_source(source).predicates() == database.predicates()

    def test_parallel_failures_in_task_order(self):
        database = Database.from_source(DIVERGING)
        options = CalibrationOptions(call_budget=200, max_depth=50)
        pairs = all_pairs(database)
        serial = EmpiricalCalibrator(database, options)
        serial.measure_pairs(pairs)
        parallel = EmpiricalCalibrator(
            Database.from_source(DIVERGING), options
        )
        parallel.measure_pairs(pairs, jobs=2)
        assert serial.failures == parallel.failures
        assert (("loop", 1), mode("-")) in parallel.failures

    def test_single_pair_stays_serial(self):
        calibrator = EmpiricalCalibrator(Database.from_source(FACTS))
        results = calibrator.measure_pairs([(("p", 1), mode("-"))], jobs=8)
        assert results[0].solutions == 4.0


class TestFailureSurfacing:
    def test_failure_warnings_lines(self):
        database = Database.from_source(DIVERGING)
        calibrator = EmpiricalCalibrator(
            database, CalibrationOptions(call_budget=200, max_depth=50)
        )
        calibrator.measure(("loop", 1), mode("-"))
        lines = calibrator.failure_warnings()
        assert len(lines) == 1
        assert "calibration failed for loop/1 mode (-)" in lines[0]

    def test_calibrate_appends_database_warnings(self):
        database = Database.from_source(DIVERGING)
        calibrator = EmpiricalCalibrator(
            database, CalibrationOptions(call_budget=200, max_depth=50)
        )
        before = len(database.warnings)
        calibrator.calibrate()
        new = database.warnings[before:]
        assert new == calibrator.failure_warnings()
        assert any("loop/1" in warning for warning in new)
        # Each call surfaces only its own failures: a second calibrate()
        # re-measures the (never-installed) failing pairs and appends
        # exactly that run's lines, not the accumulated history.
        calibrator.calibrate()
        assert len(database.warnings) == 2 * len(new)
