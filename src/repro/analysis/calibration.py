"""Empirical cost calibration (paper §I-E and §VIII).

The paper's own "extended Warren" experiments measured costs by
execution: "we call each predicate, forcing repeated backtracking, and
count the solution-tuples" — and §VIII asks that "the reordering system
should also estimate nearly all probabilities and costs on its own".

:class:`EmpiricalCalibrator` does exactly that: for a predicate and
calling mode it issues sample calls against an instrumented engine
(constants drawn deterministically from the program's own fact
domains), forces full backtracking, and averages

* **cost** — predicate calls per query (the paper's metric),
* **solutions** — answers per query,
* **prob** — fraction of queries with at least one answer,

yielding :class:`~repro.markov.goal_stats.GoalStats` ready to be
installed as ``:- cost`` declarations, so the ordinary reorderer then
runs on measured rather than modelled numbers. The paper notes the
method "is impractical even for 'toy' problems" when run exhaustively;
sampling (``max_samples``) plus call budgets keep it usable, and the
ablation benchmark compares it against the pure model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import PrologError
from ..markov.goal_stats import GoalStats
from ..observability.streaming import (
    StreamAggregates,
    StreamingRecorder,
    attach_recorder,
)
from ..prolog.database import Database
from ..prolog.engine import Engine
from ..prolog.terms import Atom, Struct, Term, Var, deref, is_number
from ..robustness import faults
from ..robustness.budget import Budget
from ..robustness.watchdog import (
    WatchdogOptions,
    WatchdogUnavailable,
    run_watchdogged,
)
from .declarations import CostDeclaration, Declarations
from .modes import Mode, ModeItem, all_input_modes, mode_str

__all__ = ["CalibrationOptions", "EmpiricalCalibrator"]

Indicator = Tuple[str, int]

#: Per-process calibrator, built once by the pool initializer so each
#: worker parses the program a single time.
_WORKER: Optional["EmpiricalCalibrator"] = None


def _calibration_worker_init(
    source: str, options: "CalibrationOptions", constants: List[str]
) -> None:
    """Pool initializer: rebuild the calibrator in the worker process.

    The program is shipped as *source text* and re-parsed here rather
    than pickled: Atom equality is identity-based within a process, so
    a pickled Database would break clause indexing.
    """
    global _WORKER
    _WORKER = EmpiricalCalibrator(
        Database.from_source(source), options, constants
    )


def _calibration_worker_measure(
    pair: Tuple[Indicator, Mode]
) -> Tuple[Optional[GoalStats], bool, Optional[Dict[str, object]]]:
    """Pool task: measure one (indicator, mode) pair.

    Returns ``(stats, failed, aggregates_payload)`` so the parent can
    rebuild its own ``failures`` list *and* merge the task's streaming
    aggregates in deterministic task order. The worker's aggregate
    state is reset per task, so each payload carries exactly this
    pair's boxes — merging them in task order reproduces the serial
    accumulation exactly (up to wall-clock histogram buckets, which
    are measurements and vary between any two runs).
    """
    assert _WORKER is not None
    before = len(_WORKER.failures)
    _WORKER.aggregates = StreamAggregates()
    stats = _WORKER.measure(*pair)
    payload = (
        _WORKER.aggregates.to_payload()
        if _WORKER.options.collect_aggregates
        else None
    )
    return stats, len(_WORKER.failures) > before, payload


def _calibration_worker_task(
    index: int, pair: Tuple[Indicator, Mode]
) -> Tuple[Optional[GoalStats], bool, Optional[Dict[str, object]]]:
    """Watchdog task: one measurement, with its fault site.

    The fault site is keyed by the *task index* (not a per-process
    counter), so a respawned worker retrying the same sample re-trips
    the same fault — which is how the tests drive a hung task all the
    way to quarantine while its neighbours measure normally.
    """
    if faults.ACTIVE is not None:
        faults.ACTIVE.hit("calibration.worker", key=index)
    return _calibration_worker_measure(pair)


@dataclass
class CalibrationOptions:
    """Sampling and safety bounds for empirical measurement."""

    #: Maximum sample queries per (predicate, mode).
    max_samples: int = 20
    #: Per-query call budget; queries that exceed it are counted as
    #: "diverged" and make the mode ineligible for calibration.
    call_budget: int = 50_000
    #: Engine depth bound during calibration runs.
    max_depth: int = 400
    #: Wall-clock allowance per parallel measurement task, seconds. A
    #: worker that exceeds it is killed and the task retried on a fresh
    #: worker; a second miss quarantines the sample (see
    #: :mod:`repro.robustness.watchdog`). Also bounds the serial re-run
    #: of a quarantined sample (as a cooperative engine deadline).
    task_timeout: float = 30.0
    #: Retries after the first failed/timed-out attempt of one task.
    task_retries: int = 1
    #: Base backoff before a retry, seconds (doubles per attempt).
    task_backoff: float = 0.05
    #: Also collect streaming per-(predicate, mode) aggregates from the
    #: sample runs (:attr:`EmpiricalCalibrator.aggregates`): workers
    #: ship their partial aggregates back as mergeable payloads, so the
    #: measured distribution feeds the live stats store for free.
    collect_aggregates: bool = False


class EmpiricalCalibrator:
    """Measures predicate statistics by running the program."""

    def __init__(
        self,
        database: Database,
        options: Optional[CalibrationOptions] = None,
        constants: Optional[Sequence[str]] = None,
    ):
        self.database = database
        self.options = options or CalibrationOptions()
        self.constants = (
            list(constants) if constants is not None else self._collect_constants()
        )
        #: (indicator, mode) pairs whose sample runs errored/diverged.
        self.failures: List[Tuple[Indicator, Mode]] = []
        #: Samples whose parallel workers hung or crashed through every
        #: retry: ((indicator, mode), reason). Each is transparently
        #: re-measured serially under a deadline; the quarantine is
        #: still surfaced through :meth:`quarantine_warnings`.
        self.quarantined: List[Tuple[Tuple[Indicator, Mode], str]] = []
        #: Streaming aggregates accumulated from the sample runs (only
        #: when ``options.collect_aggregates``); parallel workers ship
        #: partial aggregates back for a deterministic task-order
        #: merge, so any ``jobs`` value produces the same state here.
        self.aggregates = StreamAggregates()
        # One recursion-limit check up front; the (many, short-lived)
        # per-sample engines then skip it entirely.
        Engine.ensure_recursion_capacity(self.options.max_depth)

    def _collect_constants(self) -> List[str]:
        """All atomic constants (atoms and numbers) appearing in fact
        heads, in first-seen order, as query-text spellings."""
        seen: Dict[str, None] = {}
        for clause in self.database.all_clauses():
            if not clause.is_fact:
                continue
            head = deref(clause.head)
            if not isinstance(head, Struct):
                continue
            stack = list(head.args)
            while stack:
                term = deref(stack.pop())
                if isinstance(term, Atom) and term.name not in ("[]",):
                    seen.setdefault(term.name, None)
                elif is_number(term):
                    seen.setdefault(
                        repr(term) if isinstance(term, float) else str(term), None
                    )
                elif isinstance(term, Struct):
                    stack.extend(term.args)
        return list(seen)

    # -- sampling ---------------------------------------------------------

    def sample_queries(self, indicator: Indicator, mode: Mode) -> List[str]:
        """Deterministic sample calls for a (predicate, mode)."""
        name, arity = indicator
        plus_count = sum(1 for item in mode if item is ModeItem.PLUS)
        if plus_count == 0 or not self.constants:
            free_args = ", ".join(f"V{i}" for i in range(arity))
            return [f"{name}({free_args})"] if arity else [name]
        queries = []
        pool = self.constants
        samples = min(self.options.max_samples, len(pool) ** plus_count)
        for sample_index in range(samples):
            arguments = []
            free_counter = 0
            seed = sample_index
            for item in mode:
                if item is ModeItem.PLUS:
                    # Mixed-radix walk through the constant pool so the
                    # samples spread deterministically.
                    arguments.append(pool[(seed * 7 + len(arguments)) % len(pool)])
                    seed = seed * 3 + 1
                else:
                    arguments.append(f"V{free_counter}")
                    free_counter += 1
            queries.append(f"{name}({', '.join(arguments)})")
        return queries

    def measure(
        self,
        indicator: Indicator,
        mode: Mode,
        budget: Optional[Budget] = None,
    ) -> Optional[GoalStats]:
        """Measured stats for a (predicate, mode); None when any sample
        errors or exceeds the budget (the mode is unsafe to calibrate).

        ``budget`` (optional) adds a wall-clock bound shared by all of
        the pair's sample queries; expiry counts as a measurement
        failure like any other diverging sample.
        """
        queries = self.sample_queries(indicator, mode)
        if not queries:
            return None
        recorder = (
            StreamingRecorder() if self.options.collect_aggregates else None
        )
        total_calls = 0
        total_solutions = 0
        successes = 0
        for query in queries:
            engine = Engine(
                self.database,
                max_depth=self.options.max_depth,
                call_budget=self.options.call_budget,
                adjust_recursion_limit=False,
                budget=budget,
            )
            if recorder is not None:
                attach_recorder(engine, recorder)
            try:
                solutions, metrics = engine.run(query)
            except PrologError:
                self.failures.append((indicator, mode))
                return None
            total_calls += metrics.calls
            total_solutions += len(solutions)
            if solutions:
                successes += 1
        if recorder is not None:
            # Only successful pairs contribute: a failed pair returned
            # above, keeping serial and parallel accumulation identical.
            self.aggregates += recorder.aggregates
        count = len(queries)
        return GoalStats(
            cost=max(1.0, total_calls / count),
            solutions=total_solutions / count,
            prob=successes / count,
        )

    # -- batched / parallel measurement ------------------------------------

    def _program_source(self) -> str:
        """The database as re-consultable source text (for workers).

        ``op`` directives come first so custom operators parse, then
        ``table`` directives, then the clauses."""
        from ..prolog.writer import op_directives, program_to_string

        lines = op_directives(self.database.operators)
        for name, arity in sorted(self.database.tabled):
            lines.append(f":- table {name}/{arity}.")
        lines.append(
            program_to_string(self.database.to_terms(), self.database.operators)
        )
        return "\n".join(lines)

    def measure_pairs(
        self, pairs: Sequence[Tuple[Indicator, Mode]], jobs: int = 1
    ) -> List[Optional[GoalStats]]:
        """Measure many (indicator, mode) pairs, optionally in parallel.

        ``jobs > 1`` fans the sample runs across a watchdog-supervised
        process pool (:mod:`repro.robustness.watchdog`): each task gets
        ``options.task_timeout`` seconds of wall clock, a worker that
        hangs or crashes is killed and its task retried once on a fresh
        worker, and a sample that fails every attempt is *quarantined* —
        recorded in :attr:`quarantined` and transparently re-measured
        serially here under a cooperative deadline. Results (including
        the order of :attr:`failures` entries) are merged in task
        order, so any ``jobs`` value produces bit-identical output to
        the serial path. Falls back to serial execution when worker
        processes are unavailable (restricted environments).
        """
        pairs = list(pairs)
        if jobs <= 1 or len(pairs) <= 1:
            return [self.measure(*pair) for pair in pairs]
        payload = (self._program_source(), self.options, list(self.constants))
        try:
            outcomes = run_watchdogged(
                _calibration_worker_task,
                pairs,
                jobs,
                WatchdogOptions(
                    task_timeout=self.options.task_timeout,
                    retries=self.options.task_retries,
                    backoff=self.options.task_backoff,
                ),
                initializer=_calibration_worker_init,
                initargs=payload,
            )
        except (
            WatchdogUnavailable,
            OSError,
            PermissionError,
            ValueError,
            RuntimeError,
        ):
            # No subprocess support here: measure serially instead.
            return [self.measure(*pair) for pair in pairs]
        results: List[Optional[GoalStats]] = []
        for pair, outcome in zip(pairs, outcomes):
            if outcome.quarantined:
                self.quarantined.append(
                    (pair, outcome.error or "worker failed")
                )
                # Transparent serial re-run, deadline-bounded so a
                # cooperative hang cannot stall the parent; a genuine
                # diverger lands in ``failures`` like any serial one.
                results.append(
                    self.measure(
                        *pair, budget=Budget(deadline=self.options.task_timeout)
                    )
                )
                continue
            stats, failed, payload = outcome.result
            if failed:
                self.failures.append(pair)
            if payload is not None:
                self.aggregates += StreamAggregates.from_payload(payload)
            results.append(stats)
        return results

    def failure_warnings(self) -> List[str]:
        """Human-readable lines for every failed measurement so far."""
        return [
            f"calibration failed for {indicator[0]}/{indicator[1]} "
            f"mode {mode_str(mode)}: a sample query errored or exceeded "
            f"the call budget"
            for indicator, mode in self.failures
        ]

    def quarantine_warnings(self) -> List[str]:
        """Human-readable lines for every quarantined parallel sample."""
        return [
            f"calibration worker quarantined for {indicator[0]}/{indicator[1]} "
            f"mode {mode_str(mode)} ({reason}); re-measured serially"
            for (indicator, mode), reason in self.quarantined
        ]

    # -- feeding the reorderer -----------------------------------------------

    def calibrate(
        self,
        indicators: Optional[Iterable[Indicator]] = None,
        declarations: Optional[Declarations] = None,
        jobs: int = 1,
    ) -> Declarations:
        """Measure every {+,-} mode of the given predicates (default: all
        user predicates) and install the results as cost declarations.

        Existing declarations win: a user-supplied ``:- cost`` is never
        overwritten. ``jobs > 1`` measures in parallel (deterministic
        merge; see :meth:`measure_pairs`). Measurement failures are also
        appended to the database's warnings channel, which the CLI
        prints. Returns the (new or updated) Declarations object.
        """
        declarations = declarations or Declarations()
        targets = list(indicators or self.database.predicates())
        pairs = [
            (indicator, mode)
            for indicator in targets
            for mode in all_input_modes(indicator[1])
            if (indicator, mode) not in declarations.costs
        ]
        failures_before = len(self.failures)
        quarantined_before = len(self.quarantined)
        results = self.measure_pairs(pairs, jobs=jobs)
        for (indicator, mode), stats in zip(pairs, results):
            if stats is None:
                continue
            declarations.costs[(indicator, mode)] = CostDeclaration(
                indicator=indicator,
                mode=mode,
                cost=stats.cost,
                prob=stats.prob,
                solutions=stats.solutions,
            )
        # Surface this call's failures (not re-reported on later calls).
        self.database.warnings.extend(self.failure_warnings()[failures_before:])
        self.database.warnings.extend(
            self.quarantine_warnings()[quarantined_before:]
        )
        return declarations
