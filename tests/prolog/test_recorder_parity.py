"""Recorder parity: the engine's box hooks see exactly the ports they saw
before the bytecode VM became the engine.

The fixture ``fixtures/recorder_parity.json`` was captured from the
generator compiled path (the engine that drove the recorder's box hooks
before the VM took them over). For every case this module replays the
query on today's default engine and requires

* the :class:`~repro.prolog.trace.CollectingTracer` output to be
  byte-identical (compared by SHA-256 and event count — the full traces
  run to hundreds of thousands of lines);
* the full-rate :class:`StreamingRecorder` aggregates to be identical on
  every deterministic field: boxes, successes, solutions, the cost and
  yield histograms, and the per-predicate call totals (wall time is the
  only field left out);
* the engine's ``Metrics`` counters to be identical.

Cases cover the paper programs' table queries on the source and on the
reordered program (whose dispatchers are if-then-else chains), the
family-tree predicates in every mode, cut / once / solution limit /
exception / budget cases over the lowered control constructs, and a
tabled closure run top-down and with ``eval_strategy="auto"``.

The reordered programs' texts are stored in the fixture too, so a
change to the reorderer does not move it. Regenerate (only for an
intentional change to the port sequence)::

    PYTHONPATH=src python tests/prolog/test_recorder_parity.py --write
"""

import hashlib
import json
import os
import sys

import pytest

from repro.errors import ReproError
from repro.observability.streaming import StreamingRecorder, attach_recorder
from repro.programs import REGISTRY, corporate, family_tree
from repro.prolog import Engine
from repro.prolog.trace import CollectingTracer
from repro.robustness import Budget

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "recorder_parity.json")

#: Queries whose traces run past ~50k events: their recorder aggregates
#: are compared, their traces are not rendered (rendering is the slow
#: part, ~0.1 ms per event).
UNTRACED = {
    ("source", "family_tree", "cousins(V0, V1)"),
    ("source", "geography", "q3(C)"),
    ("source", "geography", "q4(A, B)"),
}

CONTROL = """
q(1). q(2). q(3).
p(X) :- q(X).
c(X) :- p(X), !.
r(X) :- p(X), q(X).
d(X) :- (q(X), X > 1 ; X = none).
ite(X, Y) :- (q(X), X >= 2 -> Y = big ; Y = small).
it(X) :- (q(X) -> true).
neg(X) :- q(X), \\+ X = 2.
neg2(X) :- q(X), not(p(X)).
cutdisj(X) :- (q(X), ! ; X = 9).
cutcond(X, Y) :- (q(X), !, X > 1 -> Y = yes ; Y = no).
cutneg(X) :- q(X), \\+ (q(Y), !, Y > X).
err(X) :- q(X), (X > 1 -> throw(boom(X)) ; true).
caught(X, E) :- catch(err(X), E, true).
oncer(X) :- once(q(X)).
fa(X) :- findall(Y, q(Y), X).
bt(X) :- between(1, 3, X), X > 1.
disp(A, B) :- (var(A) -> r_ui(A, B) ; var(B) -> r_iu(A, B) ; r_ii(A, B)).
r_ui(A, B) :- q(B), A is B * 10.
r_iu(A, B) :- q(A), B is A + 1.
r_ii(A, B) :- q(A), q(B), A < B.
"""

#: A tabled closure (producers run on a machine of their own) with a
#: negation over it; also run with ``eval_strategy="auto"``, which
#: sends the recursive ``path/2`` stratum bottom-up.
TABLED = """
:- table path/2.
edge(a, b). edge(b, c). edge(c, a). edge(c, d).
path(X, Y) :- edge(X, Y).
path(X, Y) :- path(X, Z), edge(Z, Y).
far(X) :- path(a, X), \\+ edge(a, X).
"""

TABLED_QUERIES = ["path(a, Y)", "path(X, Y)", "far(X)", "path(d, Y)"]

#: (query, ask limit, Budget(calls=...)) over :data:`CONTROL`.
CONTROL_QUERIES = [
    ("c(X)", None, None),
    ("r(X)", None, None),
    ("r(X)", 1, None),
    ("r(X)", None, 3),
    ("d(X)", None, None),
    ("ite(X, Y)", None, None),
    ("it(X)", None, None),
    ("neg(X)", None, None),
    ("neg2(X)", None, None),
    ("cutdisj(X)", None, None),
    ("cutcond(X, Y)", None, None),
    ("cutneg(X)", None, None),
    ("err(X)", None, None),
    ("caught(X, E)", None, None),
    ("oncer(X)", None, None),
    ("fa(X)", None, None),
    ("bt(X)", None, None),
    ("bt(X)", 1, None),
    ("disp(A, B)", None, None),
    ("disp(A, 2)", None, None),
    ("disp(1, B)", None, None),
    ("disp(1, 3)", None, None),
    ("disp(A, B)", 2, None),
    ("disp(1, B)", None, 4),
    ("d(X)", None, 5),
    ("neg(X)", None, 2),
]

#: Persons the family-tree mode sweep binds arguments to.
PERSONS = ("joan", "jane", "tom")


def _bound_mode_queries(name):
    """One query per bound mode and person of a binary predicate (the
    all-free mode is one of the table queries already)."""
    for person in PERSONS:
        yield f"{name}(A, {person})"
        yield f"{name}({person}, B)"
    yield f"{name}({PERSONS[0]}, {PERSONS[1]})"


def _program_queries():
    """(program, query) over the paper programs' table queries."""
    for _, query in corporate.TABLE3_QUERIES:
        yield "corporate", query
    for name, arity in family_tree.TESTED_PREDICATES:
        variables = ", ".join(f"V{i}" for i in range(arity))
        yield "family_tree", f"{name}({variables})"
    for program in ("meal", "p58", "team", "kmbench"):
        for _, queries in REGISTRY[program].TABLE4_QUERIES:
            for query in queries[:3]:
                yield program, query
    for _, query in REGISTRY["geography"].QUESTIONS:
        yield "geography", query


def cases():
    """Every parity case as (side, program, query, limit, budget calls)."""
    out = []
    for program, query in _program_queries():
        out.append(("source", program, query, None, None))
    for name, _arity in family_tree.TESTED_PREDICATES:
        for query in _bound_mode_queries(name):
            out.append(("source", "family_tree", query, None, None))
            out.append(("reordered", "family_tree", query, None, None))
    for program, query in _program_queries():
        if program != "geography":
            out.append(("reordered", program, query, None, None))
    for query, limit, calls in CONTROL_QUERIES:
        out.append(("control", "control", query, limit, calls))
    for side in ("tabled", "auto"):
        for query in TABLED_QUERIES:
            out.append((side, "tabled", query, None, None))
    return out


def case_id(case):
    side, program, query, limit, calls = case
    return f"{side}:{program}:{query}:limit={limit}:calls={calls}"


def reordered_sources():
    """The reordered programs' texts. The fixture stores the texts it was
    captured on, so the check does not depend on reorderer output."""
    from repro.reorder import Reorderer

    programs = sorted({case[1] for case in cases() if case[0] == "reordered"})
    return {
        program: Reorderer(REGISTRY[program].database()).reorder().source()
        for program in programs
    }


def _source(side, program, reordered):
    if side == "control":
        return CONTROL
    if side in ("tabled", "auto"):
        return TABLED
    if side == "reordered":
        return reordered[program]
    return REGISTRY[program].source()


def _run(engine, query, limit, calls):
    """Run one query; the outcome is the error class name or None."""
    budget = None if calls is None else Budget(calls=calls)
    try:
        engine.ask(query, limit=limit, budget=budget)
    except ReproError as exc:
        return type(exc).__name__
    return None


def _histogram(payload):
    return {
        "buckets": {str(k): v for k, v in sorted(payload["buckets"].items())},
        "count": payload["count"],
        "total": payload["total"],
        "min": payload["min"],
        "max": payload["max"],
    }


def observe(case, reordered):
    """The deterministic record of one case (what the fixture stores)."""
    side, program, query, limit, calls = case
    source = _source(side, program, reordered)
    strategy = "auto" if side == "auto" else "topdown"
    record = {}
    if (side, program, query) not in UNTRACED:
        engine = Engine.from_source(source, eval_strategy=strategy)
        engine.recorder = tracer = CollectingTracer(limit=10**7)
        record["trace_outcome"] = _run(engine, query, limit, calls)
        record["trace_events"] = len(tracer.events)
        record["trace_sha256"] = hashlib.sha256(tracer.format().encode()).hexdigest()
    engine = Engine.from_source(source, eval_strategy=strategy)
    recorder = attach_recorder(engine, StreamingRecorder(sample_every=1))
    record["outcome"] = _run(engine, query, limit, calls)
    aggregates = recorder.aggregates
    modes = []
    for (indicator, mode), aggregate in sorted(aggregates.items()):
        payload = aggregate.to_payload()
        modes.append([
            f"{indicator[0]}/{indicator[1]}", mode,
            payload["boxes"], payload["successes"], payload["solutions"],
            _histogram(payload["cost"]), _histogram(payload["yields"]),
        ])
    total_calls = {
        f"{name}/{arity}": count
        for (name, arity), count in sorted(aggregates.total_calls.items())
    }
    record["modes"] = len(modes)
    record["aggregates_sha256"] = _digest([modes, total_calls])
    metrics = engine.metrics.to_dict()
    record["calls_by_predicate_sha256"] = _digest(metrics.pop("calls_by_predicate"))
    record["metrics"] = metrics
    return record


def _digest(value):
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _load_fixture():
    with open(FIXTURE) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def fixture():
    return _load_fixture()


def test_fixture_covers_every_case(fixture):
    assert sorted(fixture["cases"]) == sorted(case_id(case) for case in cases())


@pytest.mark.parametrize("case", cases(), ids=case_id)
def test_recorder_parity(case, fixture):
    record = observe(case, fixture["reordered"])
    assert record == fixture["cases"][case_id(case)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_recorder_parity.py --write")
    reordered = reordered_sources()
    records = {case_id(case): observe(case, reordered) for case in cases()}
    with open(FIXTURE, "w") as handle:
        json.dump({"reordered": reordered, "cases": records}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(records)} cases to {FIXTURE}")
