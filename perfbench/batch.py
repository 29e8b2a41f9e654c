"""The batch workloads: ``paper_sweep`` and ``reorder_long_bodies``.

One *pass* takes every program of the workload through the user's
path and times each step:

* ``reorder``   source text -> Database -> Reorderer.reorder() -> text;
* ``rereorder`` touch one base predicate, re-reorder against the
  retained AnalysisContext, emit the text again;
* ``run``       emitted text -> consult -> every query answered;
* ``run_source`` the same queries on the unmodified source program.

Each pass records the time of every *unit*: one program's reorder or
re-reorder, one consult, one query. A run repeats the pass and keeps
each unit's fastest time; a step's time is the sum of its units'.
Answers are checked against the seed interpreter's after the timed
steps, so checking never counts as measured time.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.modes import parse_mode_string
from repro.errors import ReproError
from repro.experiments.harness import label_to_mode, mode_queries
from repro.programs import corporate, family_tree, geography, kmbench, meal, p58, team
from repro.prolog.database import Database
from repro.prolog.engine import Engine
from repro.reorder import AnalysisContext, Reorderer

import generators
import oracle

Indicator = Tuple[str, int]
#: (step, program, part): part -1 is a consult, part i >= 0 is query i
#: (0 alone for the reorder steps).
Unit = Tuple[str, str, int]

STEPS = ("reorder", "rereorder", "run", "run_source")


@dataclass
class QueryGroup:
    """Queries of one predicate in one mode (``indicator`` None: the
    queries go to the reordered program's dispatchers unchanged)."""

    indicator: Optional[Indicator]
    mode: Optional[tuple]
    queries: List[str]


@dataclass
class ProgramCase:
    name: str
    source: str
    #: Base predicate touched before the re-reorder.
    edit: Indicator
    groups: List[QueryGroup]
    #: source query -> digest of the seed interpreter's answers.
    reference: Dict[str, str] = field(default_factory=dict)

    def queries(self) -> List[str]:
        return [query for group in self.groups for query in group.queries]


# -- inputs --------------------------------------------------------------------


def _labelled_groups(labelled) -> List[QueryGroup]:
    groups = []
    for label, queries in labelled:
        if "(" in label:
            mode = label_to_mode(label)
            name = label[: label.index("(")]
            groups.append(QueryGroup((name, len(mode)), mode, list(queries)))
        else:
            groups.append(QueryGroup(None, None, list(queries)))
    return groups


def _first_fact_table(source: str) -> Indicator:
    database = Database.from_source(source)
    for indicator in database.predicates():
        if indicator[1] and all(c.is_fact for c in database.clauses(indicator)):
            return indicator
    return database.predicates()[0]


#: Instantiations of each family-tree call a run sweeps per bound mode:
#: a fixed sample of the 55 (``(-,+)``, ``(+,-)``) or 3,025 (``(+,+)``),
#: so that a run repeats every step often enough for a steady fastest
#: time, and the call counts do not depend on the seed.
MODE_SAMPLE = 24


def paper_cases(rng: random.Random) -> List[ProgramCase]:
    """The paper's §VII programs with their Table II-IV query sweeps.

    Table II: every tested family-tree predicate in all four modes, one
    call per instantiation (``MODE_SAMPLE`` of them per bound mode). The
    seed shuffles the query order inside each group.
    """
    sample = random.Random(0)
    groups = []
    for name, arity in family_tree.TESTED_PREDICATES:
        for text in ("--", "-+", "+-", "++"):
            mode = parse_mode_string(text)
            queries = mode_queries(name, mode, family_tree.PERSONS)
            if len(queries) > MODE_SAMPLE:
                queries = sample.sample(queries, MODE_SAMPLE)
            groups.append(QueryGroup((name, arity), mode, queries))
    cases = [ProgramCase("family_tree", family_tree.source(), ("wife", 2), groups)]
    cases.append(ProgramCase(
        "corporate", corporate.source(), ("employee", 2),
        _labelled_groups((label, [query]) for label, query in corporate.TABLE3_QUERIES),
    ))
    for module in (p58, meal, team, kmbench):
        source = module.source()
        cases.append(ProgramCase(
            module.__name__.rsplit(".", 1)[1], source, _first_fact_table(source),
            _labelled_groups(module.TABLE4_QUERIES),
        ))
    for case in cases:
        for group in case.groups:
            rng.shuffle(group.queries)
    return cases


#: Generated programs per pass, rules per program, body lengths.
LONG_PROGRAMS = 2
LONG_RULES = 5
LONG_BODY_LENGTHS = (5, 6, 7)
LONG_CONTROL_SHARE = 0.3


def long_body_cases(rng: random.Random) -> List[ProgramCase]:
    """Generated long-body programs plus the bundled geography program.

    Each program slot has its own fixed generator seed, so every run
    measures structurally the same programs; the run's seed renames
    their constants and orders their smoke queries. (Programs drawn
    afresh per seed differ several-fold in search cost, which would
    swamp any change a later commit makes.)
    """
    constants = list(generators.CONSTANTS)
    rng.shuffle(constants)
    cases = []
    for index in range(LONG_PROGRAMS):
        program = generators.long_body_program(
            random.Random(index + 1), f"generated{index}", LONG_RULES,
            LONG_BODY_LENGTHS, LONG_CONTROL_SHARE, constants,
        )
        rng.shuffle(program.smoke_queries)
        cases.append(ProgramCase(
            program.name, program.source, program.edit_table,
            [QueryGroup(None, None, program.smoke_queries)],
        ))
    questions = [query for _label, query in geography.QUESTIONS]
    rng.shuffle(questions)
    cases.append(ProgramCase(
        "geography", geography.source(), ("capital", 2),
        [QueryGroup(None, None, questions)],
    ))
    return cases


def setup(workload: str, seed: int) -> List[ProgramCase]:
    """Generate the inputs and their reference answers."""
    rng = random.Random(seed)
    cases = paper_cases(rng) if workload == "paper_sweep" else long_body_cases(rng)
    for case in cases:
        case.reference = oracle.reference_digests(case.source, case.queries())
    return cases


# -- one pass -------------------------------------------------------------------


@dataclass
class PassResult:
    #: Seconds of every timed unit of the pass.
    times: Dict[Unit, float] = field(default_factory=dict)
    calls_reordered: int = 0
    calls_source: int = 0
    output_clauses: int = 0
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def counts(self) -> Tuple[int, int, int]:
        return self.calls_reordered, self.calls_source, self.output_clauses


def fastest(passes: Sequence[PassResult]) -> Dict[Unit, float]:
    """Every unit's fastest time over ``passes``: the work is the same in
    each, and interference from other tenants of the machine only ever
    adds time."""
    best = dict(passes[0].times)
    for result in passes[1:]:
        for unit, seconds in result.times.items():
            if seconds < best[unit]:
                best[unit] = seconds
    return best


def step_seconds(times: Dict[Unit, float], step: str) -> float:
    return sum(seconds for unit, seconds in times.items() if unit[0] == step)


def _settle(settle: bool) -> None:
    """Collect garbage before a timed step, so one step's garbage is not
    charged to the next (skipped in the traced pass, where the collector
    would show up as unattributed time)."""
    if settle:
        gc.collect()


def sweep(text: str, queries: Sequence[str], settle: bool = True):
    """Consult ``text`` and answer every query. Returns (consult seconds,
    seconds of each query, calls, per-query outcomes, database); an
    outcome is a solution list or the error that query raised."""
    perf = time.perf_counter
    _settle(settle)
    started = perf()
    database = Database.from_source(text)
    engine = Engine(database)
    consult_s = perf() - started
    outcomes, query_s = [], []
    for query in queries:
        began = perf()
        try:
            outcomes.append(engine.ask(query))
        except ReproError as exc:
            outcomes.append(exc)
        query_s.append(perf() - began)
    return consult_s, query_s, engine.metrics.calls, outcomes, database


def record_sweep(times: Dict[Unit, float], step: str, name: str, consult_s: float,
                 query_s: Sequence[float]) -> None:
    times[(step, name, -1)] = consult_s
    for index, seconds in enumerate(query_s):
        times[(step, name, index)] = seconds


def _reordered_queries(case: ProgramCase, program) -> List[str]:
    queries = []
    for group in case.groups:
        if group.indicator is None:
            queries.extend(group.queries)
            continue
        name = group.indicator[0]
        version = program.version_name(group.indicator, group.mode) or name
        queries.extend(version + query[len(name):] for query in group.queries)
    return queries


def run_pass(cases: List[ProgramCase], check: bool = True, settle: bool = True,
             speed=None) -> PassResult:
    """Every program once through reorder, re-reorder, run, run_source
    (with a sample of the machine's ``speed`` before each program)."""
    perf = time.perf_counter
    result = PassResult()
    times = result.times
    for case in cases:
        if speed is not None:
            speed.sample()
        _settle(settle)
        started = perf()
        database = Database.from_source(case.source)
        context = AnalysisContext(database)
        program = Reorderer(database, context=context).reorder()
        text = program.source()
        times[("reorder", case.name, 0)] = perf() - started
        result.attempted += 1

        _settle(settle)
        started = perf()
        database.replace_predicate(case.edit, database.clauses(case.edit))
        retext = Reorderer(database, context=context).reorder().source()
        times[("rereorder", case.name, 0)] = perf() - started
        # The edit put back the same clauses, so the incremental path must
        # emit exactly the cold program.
        result.attempted += 1
        if retext != text:
            result.failed += 1
            result.failures.append(f"{case.name}: re-reorder differs from cold reorder")

        source_queries = case.queries()
        consult_s, query_s, calls, reordered_outcomes, emitted = sweep(
            text, _reordered_queries(case, program), settle)
        record_sweep(times, "run", case.name, consult_s, query_s)
        result.calls_reordered += calls
        consult_s, query_s, calls, source_outcomes, consulted = sweep(
            case.source, source_queries, settle)
        record_sweep(times, "run_source", case.name, consult_s, query_s)
        result.calls_source += calls
        result.output_clauses += len(emitted)
        result.attempted += 2 * len(source_queries)
        if check:
            for side, outcomes, ops in (
                ("reordered", reordered_outcomes, emitted.operators),
                ("source", source_outcomes, consulted.operators),
            ):
                for query, outcome in zip(source_queries, outcomes):
                    if isinstance(outcome, Exception):
                        got = f"error: {outcome}"
                    else:
                        got = oracle.digest(oracle.answer_multiset(outcome, ops))
                    if got != case.reference.get(query):
                        result.failed += 1
                        if len(result.failures) < 5:
                            result.failures.append(f"{case.name} {side}: {query}")
    return result
