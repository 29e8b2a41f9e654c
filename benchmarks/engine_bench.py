"""Machine-readable engine benchmark: ops/sec + metrics counters.

Not a paper artefact: this is the perf-regression harness guarding the
clause-resolution hot path (the clause *tries* the paper's cost model
charges). Each workload pre-parses its query once, captures the
engine's deterministic metrics counters for a single execution, then
times repeated executions (parse excluded) to get a throughput figure.

Usage::

    # Refresh the committed baseline after an intentional perf change:
    PYTHONPATH=src python benchmarks/engine_bench.py --output BENCH_engine.json

    # CI smoke gate — fail on >2x throughput regression or any drift in
    # the deterministic counters:
    PYTHONPATH=src python benchmarks/engine_bench.py \
        --check BENCH_engine.json --tolerance 2.0

Workloads (all run on the default engine, the bytecode VM):

``indexed_point_lookup``
    One fact out of 5000 via first-argument indexing — the best case.
``unindexed_point_lookup``
    The same lookup with indexing disabled: a full 5000-clause scan,
    i.e. the raw clause-try rate. Compiled fingerprints fast-reject
    4999 of the tries.
``deep_conjunction``
    A 24-goal flat conjunction of fact lookups — the machine's inline
    call entry and continuation return, 25 times per solution.
``arith_chain``
    A 24-goal ``is/2`` chain — deep conjunction dominated by builtin
    dispatch rather than clause resolution.
``builtin_heavy``
    Four deterministic builtins per link of a 24-link chain — the
    native DET-op dispatch cost.
``unindexed_join``
    A two-literal join over unindexed facts — clause tries plus real
    backtracking. The engine's bulk scan plans short-circuit the
    fingerprint rejects while charging identical counters.
``unindexed_join_legacy``
    The same join with scan plans disabled: the pre-plan per-clause
    loop. Its counters must be byte-identical to ``unindexed_join``
    (the plan is a pure speedup), which ``--check`` enforces in-run.
``indexed_join``
    The same join with multi-argument indexing on — backtracking all
    but disappears (``--check`` demands a >=10x drop in-run).
``bound_second_arg_lookup``
    A lookup bound only in the *second* argument — the case
    first-argument indexing cannot help; the multi-argument index
    probes the position-1 buckets instead of scanning.
``datalog_closure``
    Transitive closure on a cycle, evaluated bottom-up
    (``eval_strategy="bottomup"``) on a fresh engine per repetition so
    every repetition pays the full semi-naive materialization.
``datalog_closure_tabled``
    The same closure on the tabled top-down engine, also fresh per
    repetition — the comparator for the in-run gate that bottom-up
    materialization beats tabled SLD by >=3x.

The JSON schema (``repro-engine-bench/1``) stores, per workload, the
measured ``ops_per_sec``, the number of solutions, and the engine
metrics charged by one execution. Counters are deterministic, so
``--check`` compares them exactly; throughput is machine-dependent, so
it is compared as a ratio against ``--tolerance``. ``--check`` also
applies the machine-independent *relative* gates above, which compare
workloads of the same fresh run against each other.
"""

import argparse
import json
import platform
import sys
import time

from repro.prolog import Database, Engine, parse_term

SCHEMA = "repro-engine-bench/1"

#: Metrics counters stored per workload (the deterministic subset that
#: the seed engine and the compiled engine must agree on, plus the two
#: compiled-path counters themselves).
COUNTER_KEYS = (
    "calls",
    "unifications",
    "clause_entries",
    "backtracks",
    "skeleton_instantiations",
    "head_fast_rejects",
)

FACT_COUNT = 5_000
CHAIN_LENGTH = 24
JOIN_FACTS = 500
CLOSURE_NODES = 60


def _facts_engine(indexing):
    source = "\n".join(f"rec({i}, v{i % 97})." for i in range(FACT_COUNT))
    engine = Engine.from_source(source)
    engine.database.indexing = indexing
    return engine


def workload_indexed_point_lookup():
    return _facts_engine(True), parse_term("rec(2500, V)"), 1


def workload_unindexed_point_lookup():
    return _facts_engine(False), parse_term("rec(2500, V)"), 1


def _deep_conjunction_source():
    facts = "\n".join(f"step{i}(a, b)." for i in range(CHAIN_LENGTH))
    body = ", ".join(f"step{i}(a, B{i})" for i in range(CHAIN_LENGTH))
    return f"{facts}\nchain :- {body}."


def workload_deep_conjunction():
    return (
        Engine.from_source(_deep_conjunction_source()),
        parse_term("chain"),
        1,
    )


def _arith_chain_source():
    body = ", ".join(f"X{i} is {i} + 1" for i in range(CHAIN_LENGTH))
    return f"chain(X) :- {body}, X = done."


def workload_arith_chain():
    return (
        Engine.from_source(_arith_chain_source()),
        parse_term("chain(X)"),
        1,
    )


def _builtin_heavy_source():
    # Four deterministic builtin goals (one binding arith, three
    # comparisons) per chain link: isolates builtin-op dispatch cost —
    # the VM runs the whole chain as inline DET ops.
    links = []
    for i in range(CHAIN_LENGTH):
        links.append(
            f"X{i} is {i} * 3 + 1, X{i} >= 1, X{i} =\\= -1, X{i} < 100"
        )
    return f"chain(X) :- {', '.join(links)}, X = done."


def workload_builtin_heavy():
    return (
        Engine.from_source(_builtin_heavy_source()),
        parse_term("chain(X)"),
        1,
    )


def _join_engine(indexing, scan_plans=True):
    source = "\n".join(f"edge({i}, {(i + 1) % JOIN_FACTS})." for i in range(JOIN_FACTS))
    source += "\njoin(A, C) :- edge(A, B), edge(B, C).\n"
    engine = Engine.from_source(source)
    engine.database.indexing = indexing
    engine.database.scan_plans = scan_plans
    return engine


def workload_unindexed_join():
    return _join_engine(False), parse_term("join(1, C)"), 1


def workload_unindexed_join_legacy():
    return _join_engine(False, scan_plans=False), parse_term("join(1, C)"), 1


def workload_indexed_join():
    return _join_engine(True), parse_term("join(1, C)"), 1


def workload_bound_second_arg_lookup():
    # rec(I, v{I mod 97}): position 1 holds 97 distinct values, so the
    # multi-argument index narrows 5000 clauses to ~52 candidates.
    expected = sum(1 for i in range(FACT_COUNT) if i % 97 == 42)
    return _facts_engine(True), parse_term("rec(V, v42)"), expected


def _closure_database():
    # Two out-edges per node: every closure fact is derivable many
    # ways, so duplicate derivations dominate — cheap dict-dedup
    # bottom-up, full SLD resolution machinery per duplicate top-down.
    source = "\n".join(
        f"edge({i}, {(i + d) % CLOSURE_NODES})."
        for i in range(CLOSURE_NODES)
        for d in (1, 2)
    )
    source += "\npath(X, Y) :- edge(X, Y).\npath(X, Z) :- edge(X, Y), path(Y, Z).\n"
    return Database.from_source(source)


def workload_datalog_closure():
    database = _closure_database()
    # A fresh engine per repetition: the bottom-up dispatcher caches
    # materialized relations per engine, so this times the full
    # semi-naive fixpoint every time, not one fixpoint plus probes.
    factory = lambda: Engine(database, eval_strategy="bottomup")
    return factory, parse_term("path(0, X)"), CLOSURE_NODES, "fresh_engine"


def workload_datalog_closure_tabled():
    database = _closure_database()
    # Tables are engine-private too, so the comparator pays the full
    # tabled top-down evaluation per repetition — like for like.
    factory = lambda: Engine(database, table_all=True)
    return factory, parse_term("path(0, X)"), CLOSURE_NODES, "fresh_engine"


WORKLOADS = {
    "indexed_point_lookup": workload_indexed_point_lookup,
    "unindexed_point_lookup": workload_unindexed_point_lookup,
    "deep_conjunction": workload_deep_conjunction,
    "arith_chain": workload_arith_chain,
    "builtin_heavy": workload_builtin_heavy,
    "unindexed_join": workload_unindexed_join,
    "unindexed_join_legacy": workload_unindexed_join_legacy,
    "indexed_join": workload_indexed_join,
    "bound_second_arg_lookup": workload_bound_second_arg_lookup,
    "datalog_closure": workload_datalog_closure,
    "datalog_closure_tabled": workload_datalog_closure_tabled,
}


def run_workload(name, min_seconds):
    """Run one workload: counters from a single pass, then a timing loop.

    A workload may return ``(engine, goal, expected)`` for the usual
    reuse-one-engine loop, or ``(factory, goal, expected,
    "fresh_engine")`` to construct a fresh engine per repetition (the
    materialization/tabling workloads, whose caches would otherwise
    make every repetition after the first a no-op).
    """
    spec = WORKLOADS[name]()
    factory = None
    if len(spec) == 4:
        factory, goal, expected, _ = spec
        engine = factory()
    else:
        engine, goal, expected = spec

    before = engine.metrics.snapshot()
    solutions = sum(1 for _ in engine.solve(goal))
    charged = engine.metrics.snapshot() - before
    if solutions != expected:
        raise SystemExit(
            f"{name}: expected {expected} solutions, got {solutions}"
        )
    counters = {key: getattr(charged, key) for key in COUNTER_KEYS}

    # Warm, then time whole repetitions until min_seconds has elapsed.
    runs = 0
    start = time.perf_counter()
    deadline = start + min_seconds
    while True:
        if factory is not None:
            engine = factory()
        for _ in engine.solve(goal):
            pass
        runs += 1
        now = time.perf_counter()
        if now >= deadline:
            break
    return {
        "ops_per_sec": round(runs / (now - start), 1),
        "solutions": solutions,
        "metrics": counters,
    }


def run_all(min_seconds, names):
    return {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "workloads": {
            name: run_workload(name, min_seconds) for name in names
        },
    }


def check(results, baseline, tolerance):
    """Compare a fresh run against the committed baseline.

    Returns a list of failure strings: empty means the gate passes.
    Throughput may drift with the machine, so it fails only past
    ``tolerance``; metrics counters are deterministic and must match
    exactly.
    """
    failures = []
    if baseline.get("schema") != SCHEMA:
        failures.append(
            f"baseline schema {baseline.get('schema')!r} != {SCHEMA!r}"
            " (regenerate with --output)"
        )
        return failures
    for name, base in baseline.get("workloads", {}).items():
        fresh = results["workloads"].get(name)
        if fresh is None:
            failures.append(f"{name}: missing from this run")
            continue
        base_ops = base["ops_per_sec"]
        fresh_ops = fresh["ops_per_sec"]
        if fresh_ops * tolerance < base_ops:
            failures.append(
                f"{name}: {fresh_ops} ops/s is >{tolerance}x below "
                f"baseline {base_ops} ops/s"
            )
        if fresh["solutions"] != base["solutions"]:
            failures.append(
                f"{name}: {fresh['solutions']} solutions != baseline "
                f"{base['solutions']}"
            )
        for key, expected in base["metrics"].items():
            actual = fresh["metrics"].get(key)
            if actual != expected:
                failures.append(
                    f"{name}: metrics[{key}] = {actual} != baseline {expected}"
                )
    return failures


def relative_gates(results):
    """Machine-independent gates comparing workloads of one fresh run.

    Unlike the baseline comparison (whose throughput leg depends on the
    machine that wrote the baseline), these ratios pit two workloads of
    the *same* run against each other, so they hold anywhere:

    - scan plans must make ``unindexed_join`` >=5x faster than the
      per-clause-loop ``unindexed_join_legacy`` while charging
      byte-identical counters (the optimization is invisible to the
      cost model);
    - multi-argument indexing must cut ``indexed_join`` backtracks to
      <=1/10 of the unindexed scan's;
    - bottom-up ``datalog_closure`` must beat the tabled top-down
      comparator by >=3x, with identical answer counts.

    Gates whose workloads were not part of this run are skipped, so
    ``--workload``-filtered runs still check cleanly.
    """
    failures = []
    workloads = results["workloads"]

    join = workloads.get("unindexed_join")
    legacy = workloads.get("unindexed_join_legacy")
    if join and legacy:
        if join["ops_per_sec"] < 5.0 * legacy["ops_per_sec"]:
            failures.append(
                f"unindexed_join: {join['ops_per_sec']} ops/s is not >=5x "
                f"the legacy per-clause loop ({legacy['ops_per_sec']} ops/s)"
            )
        if join["metrics"] != legacy["metrics"]:
            failures.append(
                f"unindexed_join: counters {join['metrics']} diverge from "
                f"legacy loop {legacy['metrics']} (scan plans must be "
                "counter-neutral)"
            )

    indexed = workloads.get("indexed_join")
    if indexed and join:
        if indexed["metrics"]["backtracks"] * 10 > join["metrics"]["backtracks"]:
            failures.append(
                f"indexed_join: {indexed['metrics']['backtracks']} backtracks "
                f"is not <=1/10 of unindexed "
                f"({join['metrics']['backtracks']})"
            )

    closure = workloads.get("datalog_closure")
    tabled = workloads.get("datalog_closure_tabled")
    if closure and tabled:
        if closure["ops_per_sec"] < 3.0 * tabled["ops_per_sec"]:
            failures.append(
                f"datalog_closure: {closure['ops_per_sec']} ops/s bottom-up "
                f"is not >=3x tabled top-down "
                f"({tabled['ops_per_sec']} ops/s)"
            )
        if closure["solutions"] != tabled["solutions"]:
            failures.append(
                f"datalog_closure: {closure['solutions']} bottom-up answers "
                f"!= {tabled['solutions']} tabled answers"
            )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", metavar="PATH", help="write results as JSON to PATH"
    )
    parser.add_argument(
        "--check",
        metavar="PATH",
        help="compare against the baseline JSON at PATH; exit 1 on failure",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=2.0,
        help="allowed throughput regression factor for --check (default 2.0)",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=0.4,
        help="timing-loop duration per workload (default 0.4)",
    )
    parser.add_argument(
        "--workload",
        action="append",
        choices=sorted(WORKLOADS),
        help="run only this workload (repeatable; default: all)",
    )
    args = parser.parse_args(argv)

    names = args.workload or sorted(WORKLOADS)
    results = run_all(args.min_seconds, names)
    for name in names:
        entry = results["workloads"][name]
        counters = entry["metrics"]
        print(
            f"{name:26s} {entry['ops_per_sec']:>10.1f} ops/s  "
            f"unifications={counters['unifications']} "
            f"fast_rejects={counters['head_fast_rejects']}"
        )

    if args.output:
        with open(args.output, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")

    if args.check:
        with open(args.check) as handle:
            baseline = json.load(handle)
        failures = check(results, baseline, args.tolerance)
        failures += relative_gates(results)
        if failures:
            for failure in failures:
                print(f"FAIL {failure}", file=sys.stderr)
            return 1
        print(f"check against {args.check} passed (tolerance {args.tolerance}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
