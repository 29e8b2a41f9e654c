"""One end-to-end benchmark for reorder, run and serve.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 20 --trace 0

Workloads: ``paper_sweep``, ``reorder_long_bodies``, ``serve_mixed``,
``serve_process`` (see BENCHMARK.json for why each was chosen). With
``--trace 0`` the run measures the untraced end-to-end metrics; with
``--trace 1`` it measures one untraced pass, then the same pass with
every layer's public entry points wrapped, and reports the per-layer
metrics, the tracing overhead and the share of time no wrapper claimed.

A run repeats its batch passes for ``--seconds`` and keeps each timed
unit's fastest repetition; the gated times are then scaled to reference
seconds by the machine speed the run measured (see ``speed.py``).

Human-readable lines (every metric by name and unit, the environment,
explicit skips, the first failures) come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Full details and the Chrome trace-event
file of a traced run are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

WORKLOADS = ("paper_sweep", "reorder_long_bodies", "serve_mixed", "serve_process")

#: The end-to-end metrics every workload reports, with units.
END_TO_END = [
    ("setup_s", "s"),
    ("reorder_s", "s"),
    ("rereorder_s", "s"),
    ("run_s", "s"),
    ("run_source_s", "s"),
    ("calls_reordered", "count"),
    ("calls_source", "count"),
    ("output_clauses", "count"),
    ("peak_rss_mb", "MB"),
]
#: Operation latencies (per query, per program reorder, per serve
#: request), as measured: printed and written to the details file, but
#: not gated, because serve latency spreads 0.18-0.47 (IQR / median over
#: seeds) on a shared 2-vCPU machine.
REPORTED_ONLY = [("op_p50_ms", "ms"), ("op_p90_ms", "ms")]

#: Time metrics: reported in reference seconds (see speed.py), with the
#: measured values in the details file.
TIMES = ("setup_s", "reorder_s", "rereorder_s", "run_s", "run_source_s")

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Batch passes per run, at least (more while ``--seconds`` allows).
MIN_PASSES = 2
#: Rate of the traced serve run, as a share of the heavy rate.
TRACE_RATE_SHARE = 0.6


def environment(seed: int) -> dict:
    """CPU count, Python version, commit and seed of this run."""
    commit = None
    try:
        # Only a repository rooted here counts: a checkout nested in some
        # other repository must not report that repository's commit.
        lines = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        ).stdout.split()
        if len(lines) == 2 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    return {
        "cpus": cpus,
        "python": platform.python_version(),
        "commit": commit or "unknown (not a git checkout)",
        "seed": seed,
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- batch workloads -----------------------------------------------------------------


def to_reference_seconds(values: dict, speed, report: dict) -> dict:
    """Scale the time metrics by the run's speed factor, in place."""
    factor = speed.factor()
    report["speed_factor"] = factor
    report["measured"] = {name: values[name] for name in TIMES}
    for name in TIMES:
        values[name] *= factor
    return values


def repeat_passes(cases, speed, deadline: float) -> list:
    """Batch passes over ``cases`` until the next one would end after
    ``deadline`` (a ``perf_counter`` time), at least ``MIN_PASSES``."""
    import batch

    passes = []
    started = time.perf_counter()
    while True:
        passes.append(batch.run_pass(cases, speed=speed))
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and now + (now - started) / len(passes) > deadline:
            return passes


def batch_setups(workload: str, seed: int, speed, report: dict):
    import batch

    times = []
    cases = None
    for _ in range(SETUPS):
        speed.sample()
        started = time.perf_counter()
        cases = batch.setup(workload, seed)
        times.append(time.perf_counter() - started)
    report["setup_times"] = times
    return cases, statistics.median(times)


def run_batch(workload: str, seed: int, seconds: float, report: dict) -> dict:
    import batch
    from layers import percentile
    from speed import Speed

    speed = Speed()
    cases, setup_s = batch_setups(workload, seed, speed, report)
    # Everything alive now lives through the run: keep it out of the
    # collections that settle each timed step.
    gc.freeze()
    passes = repeat_passes(cases, speed, time.perf_counter() + seconds)
    first = passes[0]
    for later in passes[1:]:
        if later.counts() != first.counts():
            later.failed += 1
            later.failures.append("counts differ between passes of one run")
    times = batch.fastest(passes)
    # A paper_sweep operation is one query of the reordered program; a
    # reorder_long_bodies operation is one program's cold reorder.
    if workload == "paper_sweep":
        ops = [s for unit, s in times.items() if unit[0] == "run" and unit[2] >= 0]
    else:
        ops = [s for unit, s in times.items() if unit[0] == "reorder"]
    latencies = [seconds_ * 1e3 for seconds_ in ops]
    report["passes"] = len(passes)
    report["failures"] = [text for result in passes for text in result.failures][:5]
    report["attempted"] = sum(result.attempted for result in passes)
    report["failed"] = sum(result.failed for result in passes)
    values = {f"{step}_s": batch.step_seconds(times, step) for step in batch.STEPS}
    values.update({
        "setup_s": setup_s,
        "calls_reordered": first.calls_reordered,
        "calls_source": first.calls_source,
        "output_clauses": first.output_clauses,
        "peak_rss_mb": peak_rss_mb(),
        "op_p50_ms": percentile(latencies, 0.50),
        "op_p90_ms": percentile(latencies, 0.90),
    })
    return to_reference_seconds(values, speed, report)


def trace_batch(workload: str, seed: int, report: dict) -> dict:
    import batch
    import layers
    from tracing import Tracer

    cases = batch.setup(workload, seed)
    started = time.perf_counter()
    untraced = batch.run_pass(cases, settle=False)
    untraced_wall = time.perf_counter() - started
    report["attempted"] = untraced.attempted
    report["failed"] = untraced.failed
    report["failures"] = untraced.failures

    tracer = Tracer()
    layers.install(tracer)
    try:
        traced = tracer.span(batch.run_pass, layers.ROOT)(cases, check=False, settle=False)
    finally:
        tracer.uninstall()
    _calls, total, self_s = tracer.aggregates()[layers.ROOT]
    report["trace_file"] = _write_trace(tracer, workload, seed)
    reorder_wall = (batch.step_seconds(traced.times, "reorder")
                    + batch.step_seconds(traced.times, "rereorder"))
    aggregates = tracer.aggregates()
    report["traced_shares_of_reorder"] = {
        layer: sum(r[2] for name, r in aggregates.items() if name.startswith(layer))
        / reorder_wall
        for layer in ("prolog.writer", "reorder.goal_search", "markov", "analysis")
    } if reorder_wall else {}
    report["traced_layer_shares"] = layers.root_shares(tracer)
    report["untraced_pass_s"] = untraced_wall
    report["traced_pass_s"] = total
    return layers.layer_metrics(tracer, {
        "trace.overhead_share": total / untraced_wall - 1.0,
        "trace.unattributed_share": self_s / total,
    })


# -- serve workloads -------------------------------------------------------------------


def run_serve(workload: str, seed: int, seconds: float, report: dict) -> dict:
    """Set-up (inputs, reference answers, reorder, server start)
    ``SETUPS`` times; then batch passes over the served program and the light
    phase's distinct queries, in process, while the last server idles;
    then the light, heavy and ladder phases against that server.

    The passes come before the load phases, which leave the client
    process with a large heap of responses that slows later work."""
    import batch
    import serving
    from layers import percentile
    from speed import Speed

    speed = Speed()
    os.makedirs(OUT, exist_ok=True)
    connections = min(2, serving.usable_cpus())
    setup_times = []
    server = None
    try:
        for index in range(SETUPS):
            if server is not None:
                server.stop()
            speed.sample()
            started = time.perf_counter()
            light, heavy, ladder = serving.schedules(seed, seconds)
            case = serving.corporate_case(light)
            case.reference = batch.oracle.reference_digests(case.source, case.queries())
            _text, path = serving.write_reordered(OUT, f"{workload}-{seed}-{index}")
            server = serving.ServerProcess(
                ROOT, path, serving.BACKENDS[workload],
                os.path.join(OUT, f"server-{workload}-{seed}.log"))
            address = server.wait_ready()
            setup_times.append(time.perf_counter() - started)

        gc.freeze()
        pass_seconds = seconds * (1.0 - serving.LIGHT_SHARE - serving.HEAVY_SHARE
                                  - serving.LADDER_SHARE)
        passes = repeat_passes([case], speed, time.perf_counter() + pass_seconds)

        steps = {"light": serving.drive(address, light, serving.LIGHT_RPS, connections),
                 "heavy": serving.drive(address, heavy, serving.HEAVY_RPS, connections)}
        max_rps = 0.0
        for rate, requests in ladder:
            step = serving.drive(address, requests, rate, connections)
            steps[f"ladder_{rate:g}"] = step
            if not step.meets_limit():
                break
            max_rps = rate
        stats = serving.request_once(address, {"op": "stats", "id": "stats"})
    finally:
        if server is not None:
            server.stop()

    times = batch.fastest(passes)

    attempted, failed, failures = serving.check_steps(
        list(steps.values()), serving.GenerationOracle(case.source))
    for result in passes:
        attempted += result.attempted
        failed += result.failed
        failures.extend(result.failures)
        if result.counts() != passes[0].counts():
            failed += 1
            failures.append("counts differ between passes of one run")
    report["attempted"], report["failed"], report["failures"] = attempted, failed, failures[:5]
    report["passes"] = len(passes)

    light_ms = steps["light"].ok_latencies_ms()
    heavy_ms = steps["heavy"].ok_latencies_ms()
    report["reported_only"] = {
        "serve_p50_ms.light": [percentile(light_ms, 0.50), "ms"],
        "serve_p99_ms.light": [percentile(light_ms, 0.99), "ms"],
        "serve_p50_ms.heavy": [percentile(heavy_ms, 0.50), "ms"],
        "serve_p99_ms.heavy": [percentile(heavy_ms, 0.99), "ms"],
        "serve_max_rps": [max_rps, "req/s"],
        "loadgen.lag_p99_ms.heavy": [steps["heavy"].lag_p99_ms(), "ms"],
        "loadgen.achieved_rps.heavy": [steps["heavy"].achieved_rps(), "1/s"],
        "samples.light": [len(light_ms), "count"],
        "samples.heavy": [len(heavy_ms), "count"],
    }
    report["ladder"] = {
        name: {"rate": step.rate, "p99_ms": percentile(step.ok_latencies_ms(), 0.99),
               "failures": step.failures(), "backlog_grows": step.backlog_grows(),
               "meets_limit": step.meets_limit()}
        for name, step in steps.items() if name.startswith("ladder_")
    }
    report["setup_times"] = setup_times
    report["backend"] = stats.get("backend")
    report["connections"] = connections
    values = {f"{step}_s": batch.step_seconds(times, step) for step in batch.STEPS}
    values.update({
        "setup_s": statistics.median(setup_times),
        "calls_reordered": passes[0].calls_reordered,
        "calls_source": passes[0].calls_source,
        "output_clauses": passes[0].output_clauses,
        "peak_rss_mb": server.peak_rss_mb,
        "op_p50_ms": percentile(heavy_ms, 0.50),
        "op_p90_ms": percentile(heavy_ms, 0.90),
    })
    return to_reference_seconds(values, speed, report)


def trace_serve(workload: str, seed: int, seconds: float, report: dict) -> dict:
    """The heavy phase's mix against an in-process server, untraced then
    traced (a fresh server each, so both start from generation 0).

    Client and server share one interpreter here, so the mix is sent at
    ``TRACE_RATE_SHARE`` of the heavy rate to stay clear of the
    admission limit."""
    import random

    import generators
    import layers
    import serving
    from repro.programs import corporate
    from repro.prolog.database import Database
    from repro.serve import ServeOptions, ServerThread
    from tracing import Tracer

    process = workload == "serve_process"
    options = dict(port=0, backend="process" if process else "thread",
                   workers=2 if process else None)
    connections = min(2, serving.usable_cpus())
    rate = serving.HEAVY_RPS * TRACE_RATE_SHARE
    heavy = generators.serve_schedule(
        random.Random(seed), rate, seconds * serving.HEAVY_SHARE,
        corporate.EMPLOYEE_NAMES, "h", [False] * generators.TEMP_POOL)
    text, _path = serving.write_reordered(OUT, f"trace-{workload}-{seed}")

    def heavy_step(tracer=None):
        server = ServerThread(Database.from_source(text), ServeOptions(**options))
        address = server.start()
        try:
            if tracer is not None:
                layers.install(tracer)
            try:
                step = serving.drive(address, heavy, rate, connections)
                stats = serving.request_once(address, {"op": "stats", "id": "stats"})
            finally:
                if tracer is not None:
                    tracer.uninstall()
        finally:
            server.stop()
        return step, stats

    untraced, _stats = heavy_step()
    tracer = Tracer()
    traced, stats = heavy_step(tracer)
    if process:
        report["skips"]["prolog.engine"] = (
            "the process backend solves in worker processes the in-process "
            "wrappers cannot reach: engine, compile and writer counters "
            "cover only the server process")
    # One server each: generation numbers are per server, so each step's
    # updates are replayed on their own.
    generation_oracle = serving.GenerationOracle(corporate.source())
    checks = [serving.check_steps([step], generation_oracle) for step in (untraced, traced)]
    report["attempted"] = sum(check[0] for check in checks)
    report["failed"] = sum(check[1] for check in checks)
    report["failures"] = [text for check in checks for text in check[2]][:5]
    report["trace_file"] = _write_trace(tracer, workload, seed)
    untraced_ms, traced_ms = untraced.ok_latencies_ms(), traced.ok_latencies_ms()
    attributed = layers.attributed_serve_seconds(tracer)
    backend = stats.get("backend", {})
    return layers.layer_metrics(tracer, {
        "serve.executor.respawns": backend.get("respawns", 0),
        "serve.executor.degraded": backend.get("degraded_requests", 0),
        "loadgen.lag_p99_ms": traced.lag_p99_ms(),
        "loadgen.achieved_rps": traced.achieved_rps(),
        "trace.overhead_share": (
            statistics.median(traced_ms) / statistics.median(untraced_ms) - 1.0
            if traced_ms and untraced_ms else 0.0),
        "trace.unattributed_share": (
            1.0 - attributed / (sum(traced_ms) / 1e3) if traced_ms else 0.0),
    })


def _write_trace(tracer, workload: str, seed: int) -> str:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{workload}-{seed}.json")
    tracer.write_chrome(path, {"workload": workload, "seed": seed})
    return os.path.relpath(path, ROOT)


# -- entry point ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still unwinds, so the server it started is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    source_root = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source_root, "repro")):
        print(f"error: no repro package under {source_root}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, source_root)
    sys.path.insert(0, HERE)

    import layers

    env = environment(args.seed)
    report = {"workload": args.workload, "trace": args.trace, "environment": env,
              "skips": {}}
    if args.workload == "serve_process" and env["cpus"] < 2:
        report["skips"]["process_over_thread_parallelism"] = (
            f"{env['cpus']} usable CPU: two worker processes cannot run "
            f"in parallel, so serve_process numbers say nothing about "
            f"process-over-thread speedup")
    serve = args.workload.startswith("serve")
    if args.trace:
        units = dict(layers.PER_LAYER)
        if serve:
            values = trace_serve(args.workload, args.seed, args.seconds, report)
        else:
            values = trace_batch(args.workload, args.seed, report)
    else:
        units = dict(END_TO_END)
        if serve:
            values = run_serve(args.workload, args.seed, args.seconds, report)
        else:
            values = run_batch(args.workload, args.seed, args.seconds, report)

    attempted = max(1, int(report["attempted"]))
    failed = int(report["failed"])
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    report["metrics"] = metrics
    report["fail_frac"] = failed / attempted

    print(f"environment: {json.dumps(env)}")
    for name, reason in report["skips"].items():
        print(f"skip {name}: {reason}")
    for name, entry in metrics.items():
        print(f"{args.workload} {name} = {entry['value']:.6g} {entry['unit']}")
    if not args.trace:
        report.setdefault("reported_only", {}).update(
            (name, [values[name], unit]) for name, unit in REPORTED_ONLY)
        print(f"speed factor = {report['speed_factor']:.4g}; as measured: " + ", ".join(
            f"{name} {value:.6g}" for name, value in report["measured"].items()))
    for name, (value, unit) in report.get("reported_only", {}).items():
        print(f"{args.workload} {name} = {value:.6g} {unit} (not gated)")
    print(f"{args.workload} fail_frac = {report['fail_frac']:.6g} ratio "
          f"({failed} of {attempted})")
    for failure in report.get("failures", []):
        print(f"failure: {failure}")
    os.makedirs(OUT, exist_ok=True)
    detail = os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(detail, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, default=str)
    print(f"details: {os.path.relpath(detail, ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
