"""Command-line interface: ``python -m repro <command> ...``.

The end-to-end tool the paper's §VIII asks for ("we should integrate
our techniques into one system, so that we can provide a program as
input and ... receive a reordered, improved program as output"):

* ``reorder FILE``  — read a Prolog program, print the reordered one;
* ``analyze FILE``  — print what the analyses infer (fixity,
  semifixity, recursion, legal modes, warnings);
* ``run FILE QUERY`` — execute a query, printing answers and the call
  count;
* ``compare FILE QUERY`` — run a query on both the original and the
  reordered program and report the improvement ratio;
* ``profile FILE QUERY`` — run a query fully instrumented (full-rate
  recorder, structural event bus, pipeline spans, search counters,
  calibration drift) and export the telemetry as JSONL (see
  docs/OBSERVABILITY.md);
* ``serve FILE`` — long-lived concurrent query server with snapshot
  isolation and admission control (see docs/SERVING.md);
* ``client ADDRESS OP`` — one request against a running server;
* ``tables [N ...]`` — regenerate the paper's tables.

``run``, ``compare`` and ``reorder`` accept ``--profile`` (human
telemetry summary) and ``--json PATH`` (JSONL export; ``-`` = stdout).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis import (
    CallGraph,
    Declarations,
    FixityAnalysis,
    ModeInference,
    SemifixityAnalysis,
    all_input_modes,
    mode_str,
    recursive_predicates,
)
from .errors import BudgetExceededError, ReproError
from .prolog import Database, Engine, indicator_str, term_to_string
from .reorder import ReorderOptions, Reorderer
from .robustness import Budget

__all__ = [
    "main", "build_parser", "EXIT_ERROR", "EXIT_RESOURCE",
    "EXIT_UNAVAILABLE",
]

#: Exit code for parse/load/run-time errors (the historical one).
EXIT_ERROR = 2
#: Exit code for resource exhaustion: a ``--timeout`` deadline expired
#: or a budget ran out (the :class:`~repro.errors.BudgetExceededError`
#: family). Distinct from :data:`EXIT_ERROR` so callers can tell "the
#: program is wrong" from "the program ran out of time".
EXIT_RESOURCE = 3
#: Exit code for "this server cannot take the work right now": the
#: admission controller shed the request (queue full / draining), or
#: ``repro client`` could not reach the server at all. Distinct from
#: :data:`EXIT_RESOURCE` because the work was never attempted — a
#: retry (or another replica) is the right response, not a bigger
#: budget. Mirrored as literals in ``repro.serve.protocol.STATUS_EXIT``
#: (pinned against this table by ``tests/serve/test_protocol.py``).
EXIT_UNAVAILABLE = 4

#: The exit-code taxonomy, in ``repro --help`` form (docs/ROBUSTNESS.md
#: carries the full prose table).
EXIT_CODE_EPILOG = """\
exit codes:
  0  success
  1  mismatch: compare/verify found differing answer sets
  2  error: parse, load, or run-time failure
  3  resource: a --timeout deadline or budget ran out
  4  unavailable: the server shed the request (admission queue full or
     draining) or was unreachable; retry or try another replica
"""


def _load(path: str) -> Database:
    with open(path) as handle:
        database = Database.from_source(handle.read())
    for warning in database.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return database


def _options_from_args(args: argparse.Namespace) -> ReorderOptions:
    return ReorderOptions(
        reorder_goals=not args.no_goals,
        reorder_clauses=not args.no_clauses,
        specialize=not args.no_specialize,
        runtime_tests=args.runtime_tests,
        unfold_rounds=args.unfold,
        exhaustive_limit=args.exhaustive_limit,
        table_all=getattr(args, "table_all", False),
        phase_timeout=getattr(args, "phase_timeout", None),
        astar_node_budget=getattr(args, "astar_node_budget", None),
    )


def _add_profile_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--profile", action="store_true",
                        help="print a telemetry summary (events, spans, wall time)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write telemetry as JSONL to PATH ('-' = stdout)")


def _add_table_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--table-all", action="store_true",
                        help="table every user predicate (variant memoization; "
                             "see docs/TABLING.md)")


def _add_eval_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eval", choices=["topdown", "bottomup", "auto"],
                        default="topdown", dest="eval_strategy",
                        help="evaluation strategy: topdown SLD (default), "
                             "bottomup semi-naive for datalog-eligible "
                             "strata, or auto per-stratum cost-model choice "
                             "(see docs/EVALUATION.md)")


def _add_robustness_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                        help="wall-clock deadline; expiry exits with code "
                             f"{EXIT_RESOURCE} (see docs/ROBUSTNESS.md)")
    parser.add_argument("--faults", metavar="SPEC", default=None,
                        help="inject deterministic faults, e.g. "
                             "'engine.call:raise@5' (testing harness; "
                             "see docs/ROBUSTNESS.md)")
    parser.add_argument("--fault-seed", type=int, default=0, metavar="N",
                        help="seed for --faults trigger positions (default 0)")


def _deadline_budget(args: argparse.Namespace) -> Optional[Budget]:
    """One shared Budget for every stage of this command (or None)."""
    timeout = getattr(args, "timeout", None)
    return Budget(deadline=timeout) if timeout is not None else None


def _add_reorder_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--no-goals", action="store_true",
                        help="do not reorder goals within clauses")
    parser.add_argument("--no-clauses", action="store_true",
                        help="do not reorder clauses within predicates")
    parser.add_argument("--no-specialize", action="store_true",
                        help="reorder in place instead of per-mode versions")
    parser.add_argument("--runtime-tests", action="store_true",
                        help="emit nonvar-guarded if-then-else (paper §V-D)")
    parser.add_argument("--unfold", type=int, default=0, metavar="N",
                        help="apply N unfolding sweeps first (paper §VIII)")
    parser.add_argument("--exhaustive-limit", type=int, default=6,
                        help="max block size for exhaustive search (then A*)")
    parser.add_argument("--phase-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-predicate build deadline; an expired build "
                             "degrades that predicate to source order")
    parser.add_argument("--astar-node-budget", type=int, default=None,
                        metavar="N",
                        help="A* node-expansion cap per block (exhaustion "
                             "falls back to a greedy admissible completion)")


def command_reorder(args: argparse.Namespace) -> int:
    """``reorder FILE``: print the reordered program."""
    database = _load(args.file)
    reorderer = Reorderer(
        database, _options_from_args(args), budget=_deadline_budget(args)
    )
    program = reorderer.reorder()
    print(program.source(), end="")
    if args.report:
        print("\n% --- report " + "-" * 40, file=sys.stderr)
        for line in program.report.summary().splitlines():
            print(f"% {line}", file=sys.stderr)
    if args.profile:
        print("% --- pipeline spans " + "-" * 32, file=sys.stderr)
        for line in reorderer.spans.format().splitlines():
            print(f"%{line}", file=sys.stderr)
    if args.json:
        from .observability import profile_header, report_records, write_jsonl

        records = [profile_header(command="reorder", file=args.file)]
        records.extend(reorderer.spans.to_records())
        records.append(reorderer.search_counters.to_record())
        records.append(reorderer.context.counters_record())
        records.extend(report_records(program.report))
        write_jsonl(records, args.json)
    return 0


def command_analyze(args: argparse.Namespace) -> int:
    """``analyze FILE``: print what the static analyses infer."""
    database = _load(args.file)
    declarations = Declarations.from_database(database)
    graph = CallGraph(database)
    fixity = FixityAnalysis(database, graph, declarations)
    semifixity = SemifixityAnalysis(database, graph, declarations)
    inference = ModeInference(database, declarations, graph)

    print("entry points:")
    for entry in graph.entry_points(declarations.entries):
        print(f"  {indicator_str(entry)}")
    print("recursive:")
    for indicator in sorted(recursive_predicates(graph) | declarations.recursive):
        print(f"  {indicator_str(indicator)}")
    print("fixed (side-effecting):")
    for indicator in sorted(fixity.fixed_predicates):
        print(f"  {indicator_str(indicator)}")
    print("semifixed (culprit positions):")
    for indicator in database.predicates():
        positions = semifixity.positions(indicator)
        if positions:
            print(f"  {indicator_str(indicator)}: {sorted(positions)}")
    print("legal modes:")
    for indicator in database.predicates():
        pairs = []
        for mode in all_input_modes(indicator[1]):
            output = inference.output_mode(indicator, mode)
            if output is not None:
                pairs.append(f"{mode_str(mode)}->{mode_str(output)}")
        print(f"  {indicator_str(indicator)}: {', '.join(pairs) or 'NONE'}")
    for warning in inference.warnings:
        print(f"warning: {warning}")
    return 0


def _instrument(engine, follow: bool = False):
    """Attach a recorder and the structural event bus to ``engine``.

    The recorder records every Byrd box; ``follow`` selects its
    default sampling instead and leaves the bus off, keeping memory
    bounded for long runs. Returns ``(bus, recorder)``.
    """
    from .observability import attach
    from .observability.streaming import StreamingRecorder, attach_recorder

    if follow:
        return None, attach_recorder(engine, StreamingRecorder())
    recorder = attach_recorder(engine, StreamingRecorder(sample_every=1))
    return attach(engine), recorder


def _print_profile_summary(bus, recorder, metrics) -> None:
    """Human-readable telemetry summary to stderr."""
    if bus is not None:
        kinds = ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(bus.counts().items())
            if "." not in kind
        )
        print(f"% events  : {len(bus)} ({kinds})", file=sys.stderr)
        if bus.truncated:
            print(f"% events  : {bus.dropped} dropped (limit {bus.limit})",
                  file=sys.stderr)
        index_events = bus.by_kind("index")
        if index_events:
            hits = sum(1 for e in index_events if e.hit)
            narrowed = sum(1 for e in index_events if e.candidates < e.total)
            print(
                f"% index   : {len(index_events)} lookups, {hits} keyed, "
                f"{narrowed} narrowed",
                file=sys.stderr,
            )
    if metrics.table_hits or metrics.table_misses:
        print(
            f"% tables  : {metrics.table_hits} hits, "
            f"{metrics.table_misses} misses, "
            f"{metrics.table_answers} answers, "
            f"{metrics.tables_completed} completed",
            file=sys.stderr,
        )
    print(f"% boxes   : {recorder.summary_lines(top=0)[0]}", file=sys.stderr)
    wall = {}
    for (indicator, _mode), aggregate in recorder.aggregates.items():
        wall[indicator] = wall.get(indicator, 0.0) + aggregate.wall.total
    by_calls = sorted(
        metrics.calls_by_predicate.items(), key=lambda item: -item[1]
    )[:8]
    print("% top predicates (calls, boxed wall time):", file=sys.stderr)
    for indicator, calls in by_calls:
        seconds = wall.get(indicator, 0.0)
        print(
            f"%   {indicator[0]}/{indicator[1]:<3} {calls:>8} calls"
            f"  {seconds * 1e3:9.3f} ms",
            file=sys.stderr,
        )


def command_run(args: argparse.Namespace) -> int:
    """``run FILE QUERY``: execute a query, printing answers + calls."""
    database = _load(args.file)
    engine = Engine(
        database,
        table_all=args.table_all,
        budget=_deadline_budget(args),
        eval_strategy=getattr(args, "eval_strategy", "topdown"),
    )
    if getattr(args, "dump_bytecode", False):
        from .prolog.vm import disassemble_database

        print(disassemble_database(database), end="", file=sys.stderr)
    bus = recorder = None
    if args.profile or args.json:
        bus, recorder = _instrument(engine)
    solutions, metrics = engine.run(args.query)
    for solution in solutions:
        bindings = ", ".join(
            f"{name} = {term_to_string(term)}"
            for name, term in solution.bindings.items()
        )
        print(bindings or "true")
    if not solutions:
        print("no")
    print(f"% {len(solutions)} solution(s), {metrics.calls} calls")
    if metrics.table_hits or metrics.table_misses:
        print(
            f"% tables: {metrics.table_hits} hits, {metrics.table_misses} "
            f"misses, {metrics.table_answers} answers"
        )
    if engine.output_text():
        print(f"% output: {engine.output_text()!r}")
    if args.profile:
        _print_profile_summary(bus, recorder, metrics)
    if args.json:
        from .observability import (
            event_records,
            metrics_record,
            profile_header,
            recorder_records,
            solutions_record,
            write_jsonl,
        )

        records = [
            profile_header(
                command="run", file=args.file, query=args.query,
                dropped=bus.dropped + recorder.dropped,
                sampled_rate=recorder.sampled_rate(),
            )
        ]
        records.append(metrics_record(metrics))
        records.append(solutions_record(solutions))
        records.extend(recorder_records(recorder))
        records.extend(event_records(bus))
        write_jsonl(records, args.json)
    return 0


def command_disasm(args: argparse.Namespace) -> int:
    """``disasm FILE``: print the compiled bytecode per clause."""
    from .prolog.vm import disassemble_database, disassemble_predicate

    database = _load(args.file)
    if args.predicate is None:
        print(disassemble_database(database), end="")
        return 0
    name, slash, arity_text = args.predicate.rpartition("/")
    if not slash or not arity_text.isdigit():
        print(f"error: bad predicate spec {args.predicate!r} "
              f"(expected name/arity)", file=sys.stderr)
        return EXIT_ERROR
    indicator = (name, int(arity_text))
    if not database.defines(indicator):
        print(f"error: unknown predicate {args.predicate}", file=sys.stderr)
        return EXIT_ERROR
    print("\n".join(disassemble_predicate(database, indicator)))
    return 0


def compare_exit_code(
    original_count: int, new_count: int, matches: bool
) -> int:
    """Exit code of ``compare``: nonzero when the answer sets differ,
    including the asymmetric-emptiness case (one run found solutions,
    the other none) the paper treats as an outright reordering bug."""
    if (original_count == 0) != (new_count == 0):
        return 1
    return 0 if matches else 1


def _compare_run(engine, query: str, timeout: Optional[float]):
    """Run one side of a ``compare`` under its own deadline.

    Returns ``(solutions, metrics, timed_out)``. A timed-out run keeps
    the partial metrics charged up to the deadline so the other
    version's numbers can still be reported (satellite: no dying with
    the first version's traceback).
    """
    before = engine.metrics.snapshot()
    timed_out = False
    try:
        budget = Budget(deadline=timeout) if timeout is not None else None
        solutions = engine.ask(query, budget=budget)
    except BudgetExceededError:
        solutions = []
        timed_out = True
    return solutions, engine.metrics.snapshot() - before, timed_out


def command_compare(args: argparse.Namespace) -> int:
    """``compare FILE QUERY``: original vs reordered call counts.

    With ``--timeout`` each version runs under its own deadline; a
    version that exceeds it is reported with a ``TIMEOUT`` marker and
    the command exits with :data:`EXIT_RESOURCE` instead of dying with
    a traceback — the surviving version's numbers still print.
    """
    database = _load(args.file)
    report = None
    spans = None
    search = None
    strategy = getattr(args, "eval_strategy", "topdown")
    if args.method == "warren":
        from .baselines.warren import WarrenReorderer

        reordered_database = WarrenReorderer(database).reorder_program()
        new_engine = Engine(
            reordered_database, table_all=args.table_all, eval_strategy=strategy
        )
    else:
        reorderer = Reorderer(
            database, _options_from_args(args), budget=_deadline_budget(args)
        )
        program = reorderer.reorder()
        new_engine = program.engine(
            table_all=args.table_all, eval_strategy=strategy
        )
        report, spans, search = (
            program.report, reorderer.spans, reorderer.search_counters
        )
    original_engine = Engine(
        database, table_all=args.table_all, eval_strategy=strategy
    )
    original_bus = original_recorder = new_bus = new_recorder = None
    if args.profile or args.json:
        original_bus, original_recorder = _instrument(original_engine)
        new_bus, new_recorder = _instrument(new_engine)
    original_solutions, original, original_timeout = _compare_run(
        original_engine, args.query, args.timeout
    )
    new_solutions, new, new_timeout = _compare_run(
        new_engine, args.query, args.timeout
    )
    any_timeout = original_timeout or new_timeout
    matches = sorted(s.key() for s in original_solutions) == sorted(
        s.key() for s in new_solutions
    )
    original_marker = " TIMEOUT (partial)" if original_timeout else ""
    new_marker = " TIMEOUT (partial)" if new_timeout else ""
    print(f"original : {original.calls} calls, "
          f"{len(original_solutions)} solutions{original_marker}")
    print(f"reordered: {new.calls} calls, "
          f"{len(new_solutions)} solutions{new_marker}")
    if any_timeout:
        pass  # a partial run makes the ratio and answer check meaningless
    elif new.calls:
        print(f"ratio    : {original.calls / new.calls:.2f}")
    else:
        print("ratio    : n/a")
        print("warning: reordered run made 0 calls; ratio is undefined",
              file=sys.stderr)
    if any_timeout:
        print("ratio    : n/a (timeout)")
    if (
        original.table_hits or original.table_misses
        or new.table_hits or new.table_misses
    ):
        print(
            f"tables   : original {original.table_hits} hits/"
            f"{original.table_misses} misses, "
            f"reordered {new.table_hits} hits/{new.table_misses} misses"
        )
    if not any_timeout and (len(original_solutions) == 0) != (len(new_solutions) == 0):
        print(
            "warning: one run returned solutions and the other none — "
            "the reordering is not set-equivalent on this query",
            file=sys.stderr,
        )
    if any_timeout:
        which = ", ".join(
            name for name, hit in (
                ("original", original_timeout), ("reordered", new_timeout)
            ) if hit
        )
        print(f"answers  : incomparable ({which} timed out)")
        print(
            f"error: comparison partial — {which} exceeded the "
            f"{args.timeout:g}s deadline",
            file=sys.stderr,
        )
    else:
        print(f"answers  : {'identical set' if matches else 'DIFFER (bug!)'}")
    if args.json:
        from .observability import (
            degenerate_record,
            event_records,
            metrics_record,
            profile_header,
            recorder_records,
            report_records,
            solutions_record,
            write_jsonl,
        )

        records = [
            profile_header(
                command="compare", file=args.file, query=args.query,
                method=args.method,
                dropped=original_bus.dropped + new_bus.dropped
                + original_recorder.dropped + new_recorder.dropped,
                sampled_rate=1.0,
            )
        ]
        records.append(metrics_record(original, run="original"))
        records.append(solutions_record(original_solutions, run="original"))
        records.append(metrics_record(new, run="reordered"))
        records.append(solutions_record(new_solutions, run="reordered"))
        for run_name, metrics_snapshot, hit in (
            ("original", original, original_timeout),
            ("reordered", new, new_timeout),
        ):
            if not hit and metrics_snapshot.calls == 0:
                records.append(
                    degenerate_record(
                        "zero calls; ratio is undefined",
                        run=run_name,
                        calls=0,
                    )
                )
        for run_name, hit in (
            ("original", original_timeout), ("reordered", new_timeout)
        ):
            if hit:
                records.append({
                    "type": "timeout", "run": run_name,
                    "seconds": args.timeout,
                })
        if spans is not None:
            records.extend(spans.to_records())
        if search is not None:
            records.append(search.to_record())
        if report is not None:
            records.extend(report_records(report))
        records.extend(recorder_records(original_recorder, run="original"))
        records.extend(event_records(original_bus, run="original"))
        records.extend(recorder_records(new_recorder, run="reordered"))
        records.extend(event_records(new_bus, run="reordered"))
        write_jsonl(records, args.json)
    if args.profile:
        print("% original run:", file=sys.stderr)
        _print_profile_summary(original_bus, original_recorder, original)
        print("% reordered run:", file=sys.stderr)
        _print_profile_summary(new_bus, new_recorder, new)
    if any_timeout:
        return EXIT_RESOURCE
    return compare_exit_code(len(original_solutions), len(new_solutions), matches)


def command_profile(args: argparse.Namespace) -> int:
    """``profile FILE QUERY``: fully instrumented run + JSONL export.

    Produces, in order: a header record, the ten pipeline span records,
    the goal-search counters, the reorder report, engine metrics, the
    solution count, calibration-drift records, the recorder's
    per-(predicate, mode) ``stream`` aggregates and retained ``sample``
    boxes, and the structural event stream. A human summary goes to
    stderr.

    The query runs under a full-rate recorder (every Byrd box
    measured). ``--follow`` switches it to the recorder's default
    sampling and refreshes a live per-predicate summary on stderr
    while the query runs. ``--trace`` additionally writes a
    Chrome/Perfetto trace-event file from the pipeline spans plus the
    recorded boxes.
    """
    from .analysis.calibration import CalibrationOptions, EmpiricalCalibrator
    from .observability import (
        PIPELINE_PHASES,
        detach,
        event_records,
        metrics_record,
        profile_header,
        recorder_records,
        report_records,
        solutions_record,
        write_jsonl,
    )
    from .observability.drift import DriftOptions, DriftReporter

    database = _load(args.file)
    # One deadline budget shared by every stage of the command.
    budget = _deadline_budget(args)
    # 1. The reordering pipeline, for spans / search counters / report.
    reorderer = Reorderer(database.copy(), _options_from_args(args), budget=budget)
    program = reorderer.reorder()
    spans = reorderer.spans
    # 2. Empirical calibration (measures its own phase span).
    calibrated = 0
    if args.no_calibrate:
        spans.mark_skipped("calibration")
    else:
        calibrator = EmpiricalCalibrator(
            database,
            CalibrationOptions(
                max_samples=args.calibration_samples,
                task_timeout=args.task_timeout,
            ),
        )
        warnings_before = len(database.warnings)
        with spans.span("calibration") as span:
            declarations = calibrator.calibrate(jobs=args.jobs)
            calibrated = len(declarations.costs)
            span.meta.update(
                measured=calibrated,
                failures=len(calibrator.failures),
                jobs=args.jobs,
            )
            if calibrator.quarantined:
                span.meta.update(quarantined=len(calibrator.quarantined))
        # Failed measurements land on the warnings channel; surface
        # them like every other database warning, and in the report.
        for warning in database.warnings[warnings_before:]:
            print(f"warning: {warning}", file=sys.stderr)
        program.report.calibration_failures = (
            calibrator.failure_warnings() + calibrator.quarantine_warnings()
        )
    spans.ensure(PIPELINE_PHASES)
    # 3. The instrumented run itself (on the original program: that is
    #    what the model's predictions describe). ``--follow`` samples
    #    and refreshes a live summary while the query runs.
    engine = Engine(database, table_all=args.table_all, budget=budget)
    bus, recorder = _instrument(engine, follow=args.follow)
    stop = ticker = None
    if args.follow:
        import threading

        stop = threading.Event()

        def _tick() -> None:
            while not stop.wait(args.follow_interval):
                for line in recorder.summary_lines():
                    print(f"% follow  : {line}", file=sys.stderr)

        ticker = threading.Thread(target=_tick, daemon=True)
        ticker.start()
    try:
        solutions, metrics = engine.run(args.query)
    finally:
        detach(engine)
        if ticker is not None:
            stop.set()
            ticker.join(timeout=1.0)
    # 4. Predicted-vs-observed drift from the recorder's aggregates.
    drift = DriftReporter(
        database, DriftOptions(cost_factor=args.drift_factor)
    ).report(aggregates=recorder.aggregates)

    print(f"% profile : {args.file} ?- {args.query}", file=sys.stderr)
    print(f"% answers : {len(solutions)} solution(s), {metrics.calls} calls",
          file=sys.stderr)
    _print_profile_summary(bus, recorder, metrics)
    print("% pipeline spans:", file=sys.stderr)
    for line in spans.format().splitlines():
        print(f"%{line}", file=sys.stderr)
    flagged = [record for record in drift if record.flagged]
    print(
        f"% drift   : {len(flagged)}/{len(drift)} (predicate, mode) pairs "
        f"flagged (factor {args.drift_factor:g})",
        file=sys.stderr,
    )
    for record in drift[: args.drift_top]:
        print(f"%   {record.format()}", file=sys.stderr)

    if args.json:
        records = [
            profile_header(
                command="profile", file=args.file, query=args.query,
                dropped=recorder.dropped + (bus.dropped if bus else 0),
                sampled_rate=recorder.sampled_rate(),
            )
        ]
        records.extend(spans.to_records())
        records.append(reorderer.search_counters.to_record())
        records.append(reorderer.context.counters_record())
        records.extend(report_records(program.report))
        records.append(metrics_record(metrics))
        records.append(solutions_record(solutions))
        records.extend(record.to_record() for record in drift)
        records.extend(recorder_records(recorder))
        if bus is not None:
            records.extend(event_records(bus))
        count = write_jsonl(records, args.json)
        if args.json != "-":
            print(f"% wrote {count} records to {args.json}", file=sys.stderr)
    if args.trace:
        from .observability.streaming.perfetto import write_trace

        count = write_trace(args.trace, spans=spans, samples=recorder.samples())
        print(f"% wrote {count} trace events to {args.trace}", file=sys.stderr)
    return 0


def command_verify(args: argparse.Namespace) -> int:
    """``verify FILE``: sampled set-equivalence check (exit 1 on fail)."""
    from .reorder.verify import verify_reordering

    database = _load(args.file)
    program = Reorderer(database, _options_from_args(args)).reorder()
    report = verify_reordering(
        database, program, max_samples=args.samples
    )
    print(report.format())
    return 0 if report.passed else 1


def command_explain(args: argparse.Namespace) -> int:
    """``explain FILE PRED MODE``: candidate orders with model costs."""
    from .analysis import parse_mode_string
    from .reorder.explain import explain_predicate

    database = _load(args.file)
    name, _, arity_text = args.predicate.partition("/")
    indicator = (name, int(arity_text))
    mode = parse_mode_string(args.mode)
    reorderer = Reorderer(database)
    print(explain_predicate(reorderer, indicator, mode))
    return 0


def command_serve(args: argparse.Namespace) -> int:
    """``serve FILE``: run the concurrent query server until drained.

    See docs/SERVING.md for the protocol, snapshot semantics, and
    admission tuning. SIGINT/SIGTERM start a graceful drain.
    """
    import asyncio

    from .serve import QueryServer, ServeOptions

    database = _load(args.file)
    options = ServeOptions(
        host=args.host,
        port=args.port,
        unix_path=args.unix,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        default_timeout=args.default_timeout,
        max_solutions=args.max_solutions,
        max_calls=args.max_calls,
        grace=args.grace,
        drain_timeout=args.drain_timeout,
        log_path=args.log,
        table_all=args.table_all,
        eval_strategy=getattr(args, "eval_strategy", "topdown"),
        backend=args.backend,
        workers=args.workers,
    )
    server = QueryServer(database, options)

    async def _run() -> None:
        await server.start()
        print(
            f"serving {args.file} on {server.address} "
            f"(backend {options.backend}, "
            f"generation {server.store.generation}, "
            f"max {options.max_inflight} in flight + "
            f"{options.max_queue} queued)",
            file=sys.stderr,
        )
        if server.backend_warning:
            print(f"warning: {server.backend_warning}", file=sys.stderr)
        await server.serve_forever()

    asyncio.run(_run())
    stats = server.stats()
    print(
        f"drained: {stats['completed']} completed, "
        f"{stats['rejected']} rejected, "
        f"final generation {stats['generation']}",
        file=sys.stderr,
    )
    return 0


def command_client(args: argparse.Namespace) -> int:
    """``client ADDRESS OP``: one request against a running server.

    Prints the response as one JSON line; the exit code follows the
    response status (0 ok, 2 error, 3 timeout/exhausted/cancelled, 4
    rejected/unavailable — :data:`EXIT_UNAVAILABLE` also covers an
    unreachable server). ``--retry N`` retries shed/unreachable
    requests with exponential backoff before giving up.
    """
    import json

    from .serve import request_with_retries, status_exit_code

    message: dict = {"op": args.op}
    if args.op == "query":
        if not args.text:
            print("error: query needs a query string", file=sys.stderr)
            return EXIT_ERROR
        message["query"] = args.text
        if args.limit is not None:
            message["limit"] = args.limit
        if args.timeout is not None:
            message["timeout"] = args.timeout
    elif args.op == "update":
        if not (args.assert_ or args.retract):
            print("error: update needs --assert and/or --retract",
                  file=sys.stderr)
            return EXIT_ERROR
        if args.assert_:
            message["assert"] = list(args.assert_)
        if args.retract:
            message["retract"] = list(args.retract)
    response = request_with_retries(
        args.address,
        message,
        retries=max(0, args.retry),
        backoff=args.retry_backoff,
    )
    print(json.dumps(response, sort_keys=True))
    return status_exit_code(str(response.get("status", "error")))


def command_tables(args: argparse.Namespace) -> int:
    """``tables [N ...]``: regenerate the paper's tables/figures."""
    from .experiments import figure1, figure2, table1, table2, table3, table4

    wanted = set(args.which or ["1", "2", "3", "4", "fig"])
    if "fig" in wanted:
        print(figure1().format())
        print()
        print(figure2().format())
        print()
    generators = {"1": table1, "2": table2, "3": table3, "4": table4}
    for key in ("1", "2", "3", "4"):
        if key in wanted:
            print(generators[key]().format())
            print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Prolog program reordering (Gooley & Wah, ICDE 1988)",
        epilog=EXIT_CODE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    reorder = commands.add_parser("reorder", help="reorder a Prolog file")
    reorder.add_argument("file")
    reorder.add_argument("--report", action="store_true",
                         help="print the decision report to stderr")
    _add_reorder_flags(reorder)
    _add_profile_flags(reorder)
    _add_table_flag(reorder)
    _add_robustness_flags(reorder)
    reorder.set_defaults(handler=command_reorder)

    analyze = commands.add_parser("analyze", help="show the static analyses")
    analyze.add_argument("file")
    analyze.set_defaults(handler=command_analyze)

    run = commands.add_parser("run", help="run a query against a file")
    run.add_argument("file")
    run.add_argument("query")
    run.add_argument("--dump-bytecode", action="store_true",
                     help="print the compiled bytecode of every predicate "
                          "to stderr before running")
    _add_profile_flags(run)
    _add_table_flag(run)
    _add_eval_flag(run)
    _add_robustness_flags(run)
    run.set_defaults(handler=command_run)

    disasm = commands.add_parser(
        "disasm", help="print the compiled bytecode of a Prolog file"
    )
    disasm.add_argument("file")
    disasm.add_argument("--predicate", metavar="NAME/ARITY", default=None,
                        help="only this predicate (e.g. append/3)")
    disasm.set_defaults(handler=command_disasm)

    compare = commands.add_parser(
        "compare", help="query the original and the reordered program"
    )
    compare.add_argument("file")
    compare.add_argument("query")
    compare.add_argument("--method", choices=["markov", "warren"],
                         default="markov",
                         help="reordering method (default: the Markov system)")
    _add_reorder_flags(compare)
    _add_profile_flags(compare)
    _add_table_flag(compare)
    _add_eval_flag(compare)
    _add_robustness_flags(compare)
    compare.set_defaults(handler=command_compare)

    profile = commands.add_parser(
        "profile",
        help="instrumented run: events, spans, search counters, drift",
    )
    profile.add_argument("file")
    profile.add_argument("query")
    profile.add_argument("--json", metavar="PATH", default=None,
                         help="write telemetry as JSONL to PATH ('-' = stdout)")
    profile.add_argument("--follow", action="store_true",
                         help="sampled streaming mode: live per-predicate "
                              "summary on stderr while the query runs "
                              "(bounded memory, safe to leave on)")
    profile.add_argument("--follow-interval", type=float, default=2.0,
                         metavar="SECONDS",
                         help="refresh period of the --follow summary "
                              "(default 2)")
    profile.add_argument("--trace", metavar="PATH", default=None,
                         help="write a Chrome/Perfetto trace-event JSON file "
                              "(load in ui.perfetto.dev)")
    profile.add_argument("--drift-factor", type=float, default=3.0,
                         help="flag estimates off by this factor (default 3)")
    profile.add_argument("--drift-top", type=int, default=10,
                         help="drift lines printed in the summary (default 10)")
    profile.add_argument("--no-calibrate", action="store_true",
                         help="skip the empirical-calibration phase")
    profile.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="calibration worker processes (1 = serial; "
                              "any N gives bit-identical results)")
    profile.add_argument("--calibration-samples", type=int, default=8,
                         help="sample queries per (predicate, mode) (default 8)")
    profile.add_argument("--task-timeout", type=float, default=30.0,
                         metavar="SECONDS",
                         help="per-task deadline for calibration workers; a "
                              "hung worker is killed, retried once, then "
                              "quarantined and re-measured serially "
                              "(default 30)")
    _add_reorder_flags(profile)
    _add_table_flag(profile)
    _add_robustness_flags(profile)
    profile.set_defaults(handler=command_profile)

    verify = commands.add_parser(
        "verify", help="check the reordered program is set-equivalent"
    )
    verify.add_argument("file")
    verify.add_argument("--samples", type=int, default=6,
                        help="sample calls per predicate and mode")
    _add_reorder_flags(verify)
    verify.set_defaults(handler=command_verify)

    explain = commands.add_parser(
        "explain", help="show candidate goal orders and model costs"
    )
    explain.add_argument("file")
    explain.add_argument("predicate", help="name/arity, e.g. aunt/2")
    explain.add_argument("mode", help="calling mode, e.g. '(-,+)' or 'ui'")
    explain.set_defaults(handler=command_explain)

    serve = commands.add_parser(
        "serve",
        help="concurrent query server (snapshot isolation, admission "
             "control; see docs/SERVING.md)",
    )
    serve.add_argument("file")
    serve.add_argument("--host", default="127.0.0.1",
                       help="TCP bind host (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=7878,
                       help="TCP port; 0 = ephemeral (default 7878)")
    serve.add_argument("--unix", metavar="PATH", default=None,
                       help="serve on a UNIX socket instead of TCP")
    serve.add_argument("--max-inflight", type=int, default=8, metavar="N",
                       help="concurrent executing requests (default 8)")
    serve.add_argument("--max-queue", type=int, default=16, metavar="N",
                       help="admitted-but-waiting requests before load is "
                            "shed with status 'rejected' (default 16)")
    serve.add_argument("--default-timeout", type=float, default=30.0,
                       metavar="SECONDS",
                       help="per-request deadline unless the request "
                            "overrides it (default 30)")
    serve.add_argument("--max-solutions", type=int, default=10_000,
                       metavar="N",
                       help="default per-request solution cap (default 10000)")
    serve.add_argument("--max-calls", type=int, default=None, metavar="N",
                       help="per-request predicate-call budget (default none)")
    serve.add_argument("--grace", type=float, default=0.5, metavar="SECONDS",
                       help="extra wall time past the deadline before the "
                            "watchdog abandons a wedged request (default 0.5)")
    serve.add_argument("--backend", choices=["thread", "process"],
                       default="thread",
                       help="query execution backend: 'thread' shares the "
                            "server process, 'process' runs each query in a "
                            "supervised worker process that is killed on "
                            "deadline (default thread)")
    serve.add_argument("--workers", type=int, default=None, metavar="N",
                       help="executor worker count (default: derived from "
                            "--max-inflight)")
    serve.add_argument("--drain-timeout", type=float, default=5.0,
                       metavar="SECONDS",
                       help="seconds in-flight requests get to finish after "
                            "SIGINT/SIGTERM (default 5)")
    serve.add_argument("--log", metavar="PATH", default=None,
                       help="append request lifecycle events as JSONL")
    serve.add_argument("--faults", metavar="SPEC", default=None,
                       help="inject deterministic faults (sites serve.request "
                            "and serve.worker; see docs/ROBUSTNESS.md)")
    serve.add_argument("--fault-seed", type=int, default=0, metavar="N",
                       help="seed for --faults trigger positions (default 0)")
    _add_table_flag(serve)
    _add_eval_flag(serve)
    serve.set_defaults(handler=command_serve)

    client = commands.add_parser(
        "client", help="send one request to a running repro server"
    )
    client.add_argument("address",
                        help="host:port, unix:/path, or a bare socket path")
    client.add_argument("op", choices=["query", "update", "ping", "stats"])
    client.add_argument("text", nargs="?", default=None,
                        help="the query string (op query)")
    client.add_argument("--limit", type=int, default=None,
                        help="solution cap for this query")
    client.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="deadline for this query")
    client.add_argument("--assert", dest="assert_", action="append",
                        metavar="CLAUSES", default=None,
                        help="program text to add (repeatable; op update)")
    client.add_argument("--retract", action="append", metavar="SPEC",
                        default=None,
                        help="name/arity or a clause to remove (repeatable; "
                             "op update)")
    client.add_argument("--retry", type=int, default=0, metavar="N",
                        help="retry up to N times when the server sheds the "
                             "request (status rejected/unavailable) or is "
                             "unreachable (default 0)")
    client.add_argument("--retry-backoff", type=float, default=0.25,
                        metavar="SECONDS",
                        help="base of the exponential retry backoff: waits "
                             "SECS, 2*SECS, 4*SECS, ... between attempts "
                             "(default 0.25)")
    client.set_defaults(handler=command_client)

    tables = commands.add_parser("tables", help="regenerate the paper's tables")
    tables.add_argument("which", nargs="*", choices=["1", "2", "3", "4", "fig"],
                        help="which tables (default: all + figures)")
    tables.set_defaults(handler=command_tables)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Typed :class:`~repro.errors.ReproError` failures (parse errors,
    depth-limit blowups, tabling stratification violations...) become a
    one-line ``error: ...`` message and exit code :data:`EXIT_ERROR`
    (2) — no traceback. Resource exhaustion (``--timeout`` deadline
    expiry, budget caps: the
    :class:`~repro.errors.BudgetExceededError` family) gets its own
    :data:`EXIT_RESOURCE` (3) so callers can tell the two apart.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "faults", None):
        import os

        from .robustness import faults

        seed = getattr(args, "fault_seed", 0)
        # Export the plan so calibration worker processes inherit it.
        os.environ["REPRO_FAULTS"] = args.faults
        os.environ["REPRO_FAULTS_SEED"] = str(seed)
        faults.install_from_spec(args.faults, seed=seed)
    try:
        return args.handler(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # A ServerUnavailable from ``client``/``serve`` means "retry or
        # try another replica", not "the program is wrong" — resolved
        # lazily so plain commands never import the serving layer.
        serve_client = sys.modules.get("repro.serve.client")
        if serve_client is not None and isinstance(
            exc, serve_client.ServerUnavailable
        ):
            return EXIT_UNAVAILABLE
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
