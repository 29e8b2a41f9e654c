"""Instrumentation-overhead benchmark: is tracing safe to leave on?

Not a paper artefact: this harness gates the continuous-telemetry
promise of the streaming layer — that the sampled
``StreamingRecorder`` (``repro.observability.streaming``) costs so
little that it can stay attached in production. It times the
``deep_conjunction`` workload (the engine benchmark's hot flat
conjunction, 25 user-predicate calls per run) three ways:

``disabled``
    No instrumentation at all — the engine's fast path.
``streaming``
    A ``StreamingRecorder`` attached with its default sampling
    (1-in-64 past the rare-predicate threshold). This is the mode the
    overhead budget applies to.
``full_rate``
    A ``StreamingRecorder(sample_every=1)``: every Byrd box recorded,
    the exhaustive mode ``repro profile`` uses. For contrast, not gated;
    it shows what "trace everything" costs and why sampling exists.

Overhead is the **minimum of per-repeat sandwiched ratios**: every
instrumented pass is flanked by two disabled windows and compared
against the *faster* flank, and the smallest ratio across ``--repeats``
passes is kept. Scheduler noise on a shared machine is strictly
additive — interference can only slow a window down — so the faster
flank filters a descheduled baseline window (both flanks would have to
be hit), while the min across passes discards instrumented windows
that noise inflated: the same reasoning as ``timeit``'s
min-of-repeats, applied to a ratio. ``--check`` fails when the fresh
streaming overhead exceeds the committed ``max_overhead_pct`` budget
(10% by default), when deterministic sampling counters drift from the
baseline, or when the recorder misses calls.

Usage::

    # Refresh the committed baseline after an intentional change:
    PYTHONPATH=src python benchmarks/obs_bench.py --output BENCH_obs.json

    # CI gate — fail when sampled streaming costs more than the budget:
    PYTHONPATH=src python benchmarks/obs_bench.py --check BENCH_obs.json
"""

import argparse
import json
import platform
import sys
import time

from repro.observability.streaming import StreamingRecorder, attach_recorder, detach_recorder
from repro.prolog import Engine, parse_term

SCHEMA = "repro-obs-bench/1"

#: The streaming-overhead budget: the gate the acceptance criterion
#: names. A fresh run must keep sampled streaming within this many
#: percent of the uninstrumented engine on deep_conjunction.
MAX_OVERHEAD_PCT = 10.0

CHAIN_LENGTH = 24


def build_engine():
    """The engine benchmark's deep_conjunction workload: a 24-goal flat
    conjunction of fact lookups (25 user calls per run)."""
    facts = "\n".join(f"step{i}(a, b)." for i in range(CHAIN_LENGTH))
    body = ", ".join(f"step{i}(a, B{i})" for i in range(CHAIN_LENGTH))
    return Engine.from_source(f"{facts}\nchain :- {body}."), parse_term("chain")


def time_mode(engine, goal, seconds):
    """Ops/sec of repeated solves over roughly ``seconds`` of wall."""
    runs = 0
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        for _ in engine.solve(goal):
            pass
        runs += 1
        now = time.perf_counter()
        if now >= deadline:
            break
    return runs / (now - start)


def measure(min_seconds, repeats):
    """One overhead measurement: min of per-repeat sandwiched ratios.

    Each repeat times streaming and full-rate between two disabled windows
    (the trailing window doubles as the next repeat's leading one), so
    CPU frequency drift hits all modes equally. A repeat's baseline is
    the *faster* flank — a descheduled disabled window cannot deflate
    the ratio unless both flanks were hit — and the min across repeats
    discards instrumented windows that noise inflated. The reported
    throughputs are the per-mode bests (informational only — the gated
    quantity is the ratio).
    """
    engine, goal = build_engine()
    best = {"disabled": 0.0, "streaming": 0.0, "full_rate": 0.0}
    stream_ratios = []
    full_rate_ratios = []
    disabled_ops = time_mode(engine, goal, min_seconds)
    for _ in range(repeats):
        best["disabled"] = max(best["disabled"], disabled_ops)

        recorder = attach_recorder(engine, StreamingRecorder())
        streaming_ops = time_mode(engine, goal, min_seconds)
        best["streaming"] = max(best["streaming"], streaming_ops)
        detach_recorder(engine)

        attach_recorder(engine, StreamingRecorder(sample_every=1))
        full_rate_ops = time_mode(engine, goal, min_seconds)
        best["full_rate"] = max(best["full_rate"], full_rate_ops)
        detach_recorder(engine)

        trailing_ops = time_mode(engine, goal, min_seconds)
        baseline_ops = max(disabled_ops, trailing_ops)
        stream_ratios.append(baseline_ops / streaming_ops)
        full_rate_ratios.append(baseline_ops / full_rate_ops)
        disabled_ops = trailing_ops
    best["disabled"] = max(best["disabled"], disabled_ops)

    # Deterministic sampling counters from one clean instrumented run.
    engine, goal = build_engine()
    recorder = attach_recorder(engine, StreamingRecorder())
    for _ in engine.solve(goal):
        pass
    counters = {
        "calls": recorder.calls,
        "sampled_boxes": recorder.aggregates.sampled_boxes(),
        "predicates": len(recorder.aggregates.total_calls),
    }
    detach_recorder(engine)

    overhead_pct = (min(stream_ratios) - 1.0) * 100.0
    full_rate_overhead_pct = (min(full_rate_ratios) - 1.0) * 100.0
    return {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "workload": "deep_conjunction",
        "max_overhead_pct": MAX_OVERHEAD_PCT,
        "ops_per_sec": {name: round(ops, 1) for name, ops in best.items()},
        "overhead_pct": round(overhead_pct, 2),
        "full_rate_overhead_pct": round(full_rate_overhead_pct, 2),
        "counters": counters,
    }


def check(results, baseline):
    """Gate a fresh run against the committed baseline.

    Returns failure strings (empty = pass). The streaming overhead is
    compared against the *baseline's* committed budget — the budget is
    policy, so it lives in the committed file; throughput itself is
    machine-dependent and not gated here (engine_bench covers it). The
    sampling counters are deterministic and must match exactly.
    """
    failures = []
    if baseline.get("schema") != SCHEMA:
        failures.append(
            f"baseline schema {baseline.get('schema')!r} != {SCHEMA!r}"
            " (regenerate with --output)"
        )
        return failures
    budget = baseline.get("max_overhead_pct", MAX_OVERHEAD_PCT)
    if results["overhead_pct"] > budget:
        failures.append(
            f"streaming overhead {results['overhead_pct']}% exceeds the "
            f"{budget}% budget (disabled "
            f"{results['ops_per_sec']['disabled']} ops/s vs streaming "
            f"{results['ops_per_sec']['streaming']} ops/s)"
        )
    for key, expected in baseline.get("counters", {}).items():
        actual = results["counters"].get(key)
        if actual != expected:
            failures.append(
                f"counters[{key}] = {actual} != baseline {expected}"
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
        "--min-seconds",
        type=float,
        default=0.4,
        help="timing-loop duration per mode per repeat (default 0.4)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=5,
        help="paired passes; median overhead ratio kept (default 5)",
    )
    args = parser.parse_args(argv)

    results = measure(args.min_seconds, args.repeats)
    for name, ops in results["ops_per_sec"].items():
        print(f"{name:10s} {ops:>10.1f} ops/s")
    print(
        f"streaming overhead: {results['overhead_pct']}% "
        f"(budget {results['max_overhead_pct']}%); "
        f"full-rate overhead: {results['full_rate_overhead_pct']}%"
    )
    print(
        f"counters: {results['counters']['calls']} calls, "
        f"{results['counters']['sampled_boxes']} sampled"
    )

    if args.output:
        with open(args.output, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")

    if args.check:
        with open(args.check) as handle:
            baseline = json.load(handle)
        failures = check(results, baseline)
        if failures:
            for failure in failures:
                print(f"FAIL {failure}", file=sys.stderr)
            return 1
        print(f"check against {args.check} passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
