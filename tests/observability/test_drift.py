"""Tests for the calibration-drift reporter."""

import json

from repro.markov.goal_stats import GoalStats
from repro.observability.drift import (
    DriftOptions,
    DriftReporter,
    compare_estimates,
)
from repro.observability.streaming import StreamingRecorder, attach_recorder
from repro.prolog import Database, Engine


def full_rate(engine):
    return attach_recorder(engine, StreamingRecorder(sample_every=1))


def recorded_aggregates(source, query):
    engine = Engine.from_source(source)
    recorder = full_rate(engine)
    engine.ask(query)
    return recorder.aggregates


class TestCollectObservations:
    """The per-box measurements the drift reporter compares."""

    def test_facts_counted_once_with_all_solutions(self):
        aggregates = recorded_aggregates("p(1). p(2).", "p(X)")
        observation = aggregates.get(("p", 1), "(-)")
        assert observation.boxes == 1
        assert observation.solutions == 2
        assert observation.successes == 1
        # Cost 1: only the p/1 call itself, no subgoals.
        assert observation.cost.total == 1
        assert observation.mean_cost == 1.0
        assert observation.success_rate == 1.0

    def test_subgoal_calls_charged_to_parent_box(self):
        aggregates = recorded_aggregates(
            "p(1). p(2). q(2). r(X) :- p(X), q(X).", "r(X)"
        )
        r = aggregates.get(("r", 1), "(-)")
        assert r.boxes == 1
        assert r.solutions == 1  # only X = 2 survives q/1
        # r's box contains its own call, the p/1 call and two q/1 calls.
        assert r.cost.total == 4

    def test_failed_call_has_zero_success_rate(self):
        aggregates = recorded_aggregates("p(1).", "p(2)")
        observation = aggregates.get(("p", 1), "(+)")
        assert observation.boxes == 1
        assert observation.successes == 0
        assert observation.solutions == 0
        assert observation.success_rate == 0.0

    def test_modes_keyed_separately(self):
        engine = Engine.from_source("p(1). p(2).")
        recorder = full_rate(engine)
        engine.ask("p(X)")
        engine.ask("p(1)")
        aggregates = recorder.aggregates
        assert aggregates.get(("p", 1), "(-)") is not None
        assert aggregates.get(("p", 1), "(+)") is not None


class TestDriftReporter:
    def test_accurate_model_not_flagged(self):
        database = Database.from_source("p(1). p(2). p(3).")
        reporter = DriftReporter(database)
        records = reporter.report(query="p(X)")
        assert len(records) == 1
        record = records[0]
        assert record.indicator == ("p", 1)
        assert not record.flagged
        assert record.cost_ratio is not None

    def test_cost_declaration_far_from_reality_is_flagged(self):
        # The model is told p/1 costs 500 calls; measured cost is 1.
        database = Database.from_source(
            ":- cost(p/1, [-], 500, 1.0, 2).\np(1). p(2)."
        )
        reporter = DriftReporter(database, DriftOptions(cost_factor=3.0))
        records = reporter.report(query="p(X)")
        assert len(records) == 1
        record = records[0]
        assert record.flagged
        assert any("overestimated" in reason for reason in record.reasons)
        assert record.cost_ratio < 1.0 / 3.0

    def test_flagged_records_sort_first(self):
        database = Database.from_source(
            ":- cost(p/1, [-], 500, 1.0, 2).\n"
            "p(1). p(2).\n"
            "q(a). q(b).\n"
        )
        engine = Engine(database)
        recorder = full_rate(engine)
        engine.ask("p(X)")
        engine.ask("q(X)")
        records = DriftReporter(database).report(aggregates=recorder.aggregates)
        assert [r.indicator for r in records] == [("p", 1), ("q", 1)]
        assert records[0].flagged and not records[1].flagged

    def test_builtins_excluded(self):
        database = Database.from_source("p(X) :- X = 1.")
        records = DriftReporter(database).report(query="p(X)")
        assert all(r.indicator == ("p", 1) for r in records)

    def test_report_requires_query_or_bus(self):
        reporter = DriftReporter(Database.from_source("p(1)."))
        try:
            reporter.report()
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError")

    def test_record_serialises_to_json(self):
        reporter = DriftReporter(Database.from_source("p(1). p(2)."))
        for record in reporter.report(query="p(X)"):
            decoded = json.loads(json.dumps(record.to_record()))
            assert decoded["type"] == "drift"
            assert decoded["predicate"] == "p/1"
            assert {"observed", "predicted", "flagged"} <= set(decoded)

    def test_format_mentions_drift_when_flagged(self):
        database = Database.from_source(
            ":- cost(p/1, [-], 500, 1.0, 2).\np(1). p(2)."
        )
        records = DriftReporter(database).report(query="p(X)")
        assert "DRIFT" in records[0].format()


class TestDriftEdgeCases:
    def test_predicate_never_called_produces_no_record(self):
        # unused/1 is defined but the query never reaches it: drift is
        # about observed behaviour, so it must not appear at all (and
        # in particular must not be flagged as "never ran").
        database = Database.from_source("p(1).\nunused(x).")
        records = DriftReporter(database).report(query="p(X)")
        assert [r.indicator for r in records] == [("p", 1)]

    def test_zero_predicted_cost_does_not_divide_by_zero(self):
        # +1 smoothing: a zero-cost prediction vs. a zero-cost
        # observation is a perfect match, not a crash or a flag.
        predicted = GoalStats(cost=0.0, solutions=1.0, prob=1.0)
        ratio, prob_delta, reasons = compare_estimates(
            0.0, 1.0, predicted, DriftOptions()
        )
        assert ratio == 1.0
        assert prob_delta == 0.0
        assert reasons == []
        # And a modest observed cost over a zero prediction stays
        # finite, flagged only past the smoothed factor.
        ratio, _, reasons = compare_estimates(
            5.0, 1.0, predicted, DriftOptions(cost_factor=3.0)
        )
        assert ratio == 6.0
        assert any("underestimated" in reason for reason in reasons)

    def test_mode_never_enumerated_by_model_is_always_flagged(self):
        ratio, prob_delta, reasons = compare_estimates(
            3.0, 1.0, None, DriftOptions()
        )
        assert ratio is None and prob_delta is None
        assert reasons == ["mode observed at runtime but illegal for the model"]
