"""Calibration drift: predicted vs. observed predicate statistics.

The Markov cost model predicts, per (predicate, calling mode), an
expected exhaustive-exploration cost, an expected solution count, and a
success probability (§VI-A-4). This module compares those predictions
with the same three quantities *measured* by the streaming recorder
(:mod:`repro.observability.streaming`), and reports every user
predicate whose estimates diverge beyond a configurable factor —
exactly the feedback loop the paper's §VIII asks for ("the reordering
system should also estimate nearly all probabilities and costs on its
own"): where the model drifts, empirical calibration (``:- cost``
declarations, or
:class:`~repro.analysis.calibration.EmpiricalCalibrator`) is worth its
price.

Observed statistics come from the recorder's Byrd boxes, folded into a
:class:`~repro.observability.streaming.aggregate.ModeAggregate` per
(predicate, runtime mode):

* **cost** — 1 (the call itself) + calls made while the box is active,
  matching the engine's call-count metric per exhaustive exploration;
* **solutions** — ``exit`` crossings of the box;
* **success** — whether the box exited at least once.

Boxes abandoned by cut, ``once`` or a solution limit count with
whatever was observed before they closed. With ``sample_every=1`` every
box is measured, so the numbers are exact.

Runtime modes are nonvar/var approximations of the model's
ground/free abstraction; partially instantiated arguments are counted
as ``+``, which is the standard profiling compromise (documented in
docs/OBSERVABILITY.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..analysis.declarations import Declarations
from ..analysis.modes import parse_mode_string
from ..markov.goal_stats import GoalStats
from ..markov.predicate_model import CostModel
from ..prolog.database import Database
from ..prolog.engine import Engine
from .streaming import (
    ModeAggregate,
    StreamAggregates,
    StreamingRecorder,
    attach_recorder,
)

__all__ = [
    "DriftOptions",
    "DriftRecord",
    "DriftReporter",
    "compare_estimates",
]

Indicator = Tuple[str, int]


def compare_estimates(
    observed_cost: float,
    observed_prob: float,
    predicted: Optional[GoalStats],
    options: DriftOptions,
) -> Tuple[Optional[float], Optional[float], List[str]]:
    """Score one observed-vs-predicted pair against drift thresholds.

    Returns ``(cost_ratio, prob_delta, reasons)`` — ``reasons`` is
    nonempty exactly when the pair counts as drifted. A ``predicted``
    of None means the model never enumerated this mode — always
    flagged.
    """
    if predicted is None:
        return None, None, ["mode observed at runtime but illegal for the model"]
    # +1 smoothing keeps tiny costs from generating huge ratios.
    ratio = (observed_cost + 1.0) / (predicted.cost + 1.0)
    prob_delta = observed_prob - predicted.prob
    reasons = []
    factor = options.cost_factor
    if ratio >= factor or ratio <= 1.0 / factor:
        direction = "under" if ratio > 1.0 else "over"
        reasons.append(f"cost {direction}estimated x{max(ratio, 1 / ratio):.1f}")
    if abs(prob_delta) > options.prob_tolerance:
        reasons.append(f"success probability off by {prob_delta:+.2f}")
    return ratio, prob_delta, reasons


@dataclass
class DriftOptions:
    """Thresholds deciding when an estimate counts as drifted."""

    #: Flag when predicted and observed cost differ by this factor
    #: (either direction, with +1 smoothing on both sides).
    cost_factor: float = 3.0
    #: Flag when |predicted - observed| success probability exceeds this.
    prob_tolerance: float = 0.25


@dataclass
class DriftRecord:
    """Predicted-vs-observed comparison for one (predicate, mode)."""

    indicator: Indicator
    mode_text: str
    observed: ModeAggregate
    predicted: Optional[GoalStats]
    cost_ratio: Optional[float]
    prob_delta: Optional[float]
    flagged: bool
    reasons: List[str] = field(default_factory=list)

    def to_record(self) -> Dict[str, object]:
        """The comparison as one JSONL-ready dict."""
        record: Dict[str, object] = {
            "type": "drift",
            "predicate": f"{self.indicator[0]}/{self.indicator[1]}",
            "mode": self.mode_text,
            "observed": {
                "invocations": self.observed.boxes,
                "cost": self.observed.mean_cost,
                "solutions": self.observed.mean_solutions,
                "prob": self.observed.success_rate,
            },
            "predicted": None
            if self.predicted is None
            else {
                "cost": self.predicted.cost,
                "solutions": self.predicted.solutions,
                "prob": self.predicted.prob,
            },
            "cost_ratio": self.cost_ratio,
            "prob_delta": self.prob_delta,
            "flagged": self.flagged,
            "reasons": list(self.reasons),
        }
        return record

    def format(self) -> str:
        """One human-readable comparison line."""
        name = f"{self.indicator[0]}/{self.indicator[1]} {self.mode_text}"
        if self.predicted is None:
            return f"{name}: no model prediction ({self.observed.boxes} calls observed)"
        flag = "  DRIFT: " + ", ".join(self.reasons) if self.flagged else ""
        return (
            f"{name}: cost {self.predicted.cost:.1f} -> {self.observed.mean_cost:.1f} "
            f"(x{self.cost_ratio:.2f}), p {self.predicted.prob:.2f} -> "
            f"{self.observed.success_rate:.2f}{flag}"
        )


class DriftReporter:
    """Compares the cost model against measured box statistics."""

    def __init__(
        self,
        database: Database,
        options: Optional[DriftOptions] = None,
        declarations: Optional[Declarations] = None,
        model: Optional[CostModel] = None,
    ):
        self.database = database
        self.options = options or DriftOptions()
        self.declarations = declarations or Declarations.from_database(database)
        self.model = model or CostModel(database, self.declarations)

    def report(
        self,
        query: Optional[str] = None,
        aggregates: Optional[StreamAggregates] = None,
    ) -> List[DriftRecord]:
        """Drift records for every observed user predicate, sorted with
        flagged entries first (then by observed cost, descending).

        Provide either already-recorded aggregates or a query, which is
        then run on a fresh engine under a full-rate recorder.
        """
        if aggregates is None:
            if query is None:
                raise ValueError("need a query or stream aggregates")
            engine = Engine(self.database)
            recorder = attach_recorder(engine, StreamingRecorder(sample_every=1))
            engine.ask(query)
            aggregates = recorder.aggregates
        records = []
        for (indicator, mode_text), observed in aggregates.items():
            if not self.database.defines(indicator):
                continue  # builtins: not calibration targets
            records.append(self._compare(indicator, mode_text, observed))
        records.sort(
            key=lambda r: (not r.flagged, -r.observed.mean_cost, r.indicator)
        )
        return records

    def _compare(
        self, indicator: Indicator, mode_text: str, observed: ModeAggregate
    ) -> DriftRecord:
        predicted = self.model.predicate_stats(
            indicator, parse_mode_string(mode_text)
        )
        ratio, prob_delta, reasons = compare_estimates(
            observed.mean_cost,
            observed.success_rate,
            predicted,
            self.options,
        )
        return DriftRecord(
            indicator=indicator,
            mode_text=mode_text,
            observed=observed,
            predicted=predicted,
            cost_ratio=ratio,
            prob_delta=prob_delta,
            flagged=bool(reasons),
            reasons=reasons,
        )
