"""Which public entry points are traced, and the per-layer metrics.

Span names are ``<module layer>.<entry point>``; a layer's self time is
the summed self time of its spans. The layer list mirrors the repo's
modules: prolog.reader, prolog.database, prolog.compile, prolog.engine,
analysis, markov, reorder, prolog.writer, and the serve.* modules.
"""

from __future__ import annotations

import time
from typing import Dict, Sequence

from tracing import REQUEST_ID, Tracer

#: Every per-layer metric, with its unit (the ``--trace 1`` result).
PER_LAYER = [
    ("prolog.reader.parse_s", "s"),
    ("prolog.reader.terms", "count"),
    ("prolog.database.consult_s", "s"),
    ("prolog.database.index_probes", "count"),
    ("prolog.database.candidates_per_probe", "ratio"),
    ("prolog.compile.clauses", "count"),
    ("prolog.compile.compile_s", "s"),
    ("prolog.engine.solve_s", "s"),
    ("prolog.engine.calls", "count"),
    ("prolog.engine.unifications", "count"),
    ("prolog.engine.unify_hit_ratio", "ratio"),
    ("prolog.engine.backtracks", "count"),
    ("prolog.engine.fast_reject_share", "ratio"),
    ("prolog.engine.builtin_call_share", "ratio"),
    ("analysis.declarations_s", "s"),
    ("analysis.callgraph_s", "s"),
    ("analysis.fixity_s", "s"),
    ("analysis.semifixity_s", "s"),
    ("analysis.mode_inference_s", "s"),
    ("analysis.domains_s", "s"),
    ("analysis.context_s", "s"),
    ("markov.evaluations", "count"),
    ("markov.evaluate_s", "s"),
    ("reorder.goal_search_s", "s"),
    ("reorder.blocks", "count"),
    ("reorder.exhaustive_permutations", "count"),
    ("reorder.legal_share", "ratio"),
    ("reorder.astar_expanded", "count"),
    ("reorder.astar_pruned", "count"),
    ("reorder.astar_heap_peak", "count"),
    ("reorder.clause_order_s", "s"),
    ("reorder.specialize_s", "s"),
    ("reorder.dedup_s", "s"),
    ("reorder.pipeline_s", "s"),
    ("reorder.versions", "count"),
    ("reorder.build_hit_ratio", "ratio"),
    ("prolog.writer.write_s", "s"),
    ("prolog.writer.clauses", "count"),
    ("serve.protocol.decode_s", "s"),
    ("serve.protocol.encode_s", "s"),
    ("serve.protocol.bytes_out", "bytes"),
    ("serve.admission.wait_p50_ms", "ms"),
    ("serve.admission.wait_p99_ms", "ms"),
    ("serve.admission.queued_share", "ratio"),
    ("serve.admission.rejected", "count"),
    ("serve.snapshots.build_ms", "ms"),
    ("serve.snapshots.updates", "count"),
    ("serve.snapshots.pickle_bytes", "bytes"),
    ("serve.snapshots.pickle_ms", "ms"),
    ("serve.executor.run_p50_ms", "ms"),
    ("serve.executor.run_p99_ms", "ms"),
    ("serve.executor.respawns", "count"),
    ("serve.executor.degraded", "count"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.achieved_rps", "1/s"),
    ("trace.overhead_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
]

#: Span-name prefix whose summed self time gives each ``*_s`` metric.
_SELF_TIME = {
    "prolog.reader.parse_s": ("prolog.reader.",),
    "prolog.database.consult_s": ("prolog.database.",),
    "prolog.compile.compile_s": ("prolog.compile.",),
    "prolog.engine.solve_s": ("prolog.engine.",),
    "analysis.declarations_s": ("analysis.declarations",),
    "analysis.callgraph_s": ("analysis.callgraph",),
    "analysis.fixity_s": ("analysis.fixity",),
    "analysis.semifixity_s": ("analysis.semifixity",),
    "analysis.mode_inference_s": ("analysis.mode_inference",),
    "analysis.domains_s": ("analysis.domains",),
    "analysis.context_s": ("analysis.context",),
    "markov.evaluate_s": ("markov.",),
    "reorder.goal_search_s": ("reorder.goal_search",),
    "reorder.clause_order_s": ("reorder.clause_order",),
    "reorder.specialize_s": ("reorder.specialize",),
    "reorder.dedup_s": ("reorder.dedup",),
    "reorder.pipeline_s": ("reorder.pipeline", "reorder.init", "reorder.emit",
                           "reorder.mode_enumeration"),
    "prolog.writer.write_s": ("prolog.writer.",),
    "serve.protocol.decode_s": ("serve.protocol.decode",),
    "serve.protocol.encode_s": ("serve.protocol.encode",),
}

#: The root span of a traced batch pass; its self time is what no
#: wrapper claimed.
ROOT = "bench.pass"


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point (undo with ``tracer.uninstall()``)."""
    from repro.analysis.callgraph import CallGraph
    from repro.analysis.declarations import Declarations
    from repro.analysis.domains import DomainAnalysis
    from repro.analysis.fixity import FixityAnalysis
    from repro.analysis.mode_inference import ModeInference
    from repro.analysis.semifixity import SemifixityAnalysis
    from repro.markov.predicate_model import CostModel
    from repro.prolog.database import Database
    from repro.prolog.engine import Engine
    from repro.prolog.reader.parser import Parser
    from repro.reorder.pipeline.build import VersionBuildPhase
    from repro.reorder.pipeline.context import BUILD_STAGE, AnalysisContext
    from repro.reorder.pipeline.phases import (
        ModeEnumerationPhase,
        OutputBuildPhase,
        VersionDedupPhase,
    )
    from repro.reorder.pipeline.types import ReorderedProgram
    from repro.reorder.system import Reorderer
    from repro.serve.admission import AdmissionController
    from repro.serve.executor import ProcessExecutor, ThreadedExecutor
    from repro.serve.snapshots import SnapshotStore

    def timed(name, before=None, after=None):
        return lambda fn: tracer.span(fn, name, before, after)

    def counted(name, size=None):
        def after(tracer_, _token, _args, result):
            tracer_.count(name, 1 if size is None else size(result))
        return after

    # prolog.reader / prolog.database / prolog.compile
    tracer.patch_method(Parser, "read_program", timed(
        "prolog.reader.read_program", after=counted("prolog.reader.terms", len)))
    tracer.patch_function("repro.prolog.reader.parser", "parse_term", timed(
        "prolog.reader.parse_term", after=counted("prolog.reader.terms")))
    tracer.patch_method(Database, "consult", timed("prolog.database.consult"))

    def probe(tracer_, _args, result):
        tracer_.count("prolog.database.index_probes")
        tracer_.count("prolog.database.candidates", len(result))

    tracer.patch_method(Database, "matching_for", lambda fn: tracer.counting(fn, probe))
    tracer.patch_function("repro.prolog.compile", "compile_clause",
                          timed("prolog.compile.compile_clause"))

    # prolog.engine: counters come from each engine's own Metrics.
    def remember_engine(args):
        engine = args[0]
        tracer.seen.setdefault(id(engine.metrics), (engine.metrics, engine.database))

    tracer.patch_method(Engine, "ask", timed("prolog.engine.ask", before=remember_engine))

    # analysis
    tracer.patch_method(Declarations, "from_database", timed("analysis.declarations"))
    tracer.patch_method(CallGraph, "__init__", timed("analysis.callgraph"))
    tracer.patch_method(FixityAnalysis, "__init__", timed("analysis.fixity"))
    tracer.patch_method(SemifixityAnalysis, "__init__", timed("analysis.semifixity"))
    tracer.patch_method(ModeInference, "__init__", timed("analysis.mode_inference"))
    tracer.patch_method(ModeInference, "output_mode", timed("analysis.mode_inference"))
    tracer.patch_method(DomainAnalysis, "__init__", timed("analysis.domains"))
    tracer.patch_method(AnalysisContext, "refresh", timed("analysis.context"))

    # markov
    tracer.patch_method(CostModel, "evaluate_goals", timed("markov.evaluate_goals"))
    tracer.patch_method(CostModel, "goal_stats", timed("markov.goal_stats"))
    tracer.patch_function("repro.markov.clause_model", "evaluate_sequence", timed(
        "markov.evaluate_sequence", after=counted("markov.evaluations")))

    # reorder
    def before_reorder(args):
        context = args[0].context
        return (context.hits.get(BUILD_STAGE, 0), context.misses.get(BUILD_STAGE, 0))

    def after_reorder(tracer_, token, args, result):
        reorderer = args[0]
        for key, value in reorderer.search_counters.to_dict().items():
            if key == "astar_heap_peak":
                tracer_.peak(f"reorder.{key}", value)
            else:
                tracer_.count(f"reorder.{key}", value)
        tracer_.count("reorder.versions", len(result.versions))
        context = reorderer.context
        tracer_.count("reorder.build_hits", context.hits.get(BUILD_STAGE, 0) - token[0])
        tracer_.count("reorder.build_misses", context.misses.get(BUILD_STAGE, 0) - token[1])

    tracer.patch_method(Reorderer, "__init__", timed("reorder.init"))
    tracer.patch_method(Reorderer, "reorder", timed(
        "reorder.pipeline", before=before_reorder, after=after_reorder))
    tracer.patch_function("repro.reorder.goal_search", "find_best_order",
                          timed("reorder.goal_search"))
    tracer.patch_function("repro.reorder.clause_order", "order_clauses",
                          timed("reorder.clause_order"))
    tracer.patch_method(ModeEnumerationPhase, "run", timed("reorder.mode_enumeration"))
    tracer.patch_method(VersionBuildPhase, "run", timed("reorder.specialize"))
    tracer.patch_method(OutputBuildPhase, "run", timed("reorder.specialize"))
    tracer.patch_method(VersionDedupPhase, "run", timed("reorder.dedup"))
    tracer.patch_method(ReorderedProgram, "source", timed("reorder.emit"))

    # prolog.writer
    tracer.patch_function("repro.prolog.writer", "clause_to_string", timed(
        "prolog.writer.clause_to_string", after=counted("prolog.writer.clauses")))
    tracer.patch_function("repro.prolog.writer", "program_to_string",
                          timed("prolog.writer.program_to_string"))
    tracer.patch_function("repro.prolog.writer", "term_to_string",
                          timed("prolog.writer.term_to_string"))

    # serve.protocol: the decoder also tags the request's task context.
    def tag_request(tracer_, _token, _args, message):
        REQUEST_ID.set(message.get("id"))

    tracer.patch_function("repro.serve.protocol", "decode_line", timed(
        "serve.protocol.decode_line", after=tag_request))
    tracer.patch_function("repro.serve.protocol", "encode", timed(
        "serve.protocol.encode", after=counted("serve.protocol.bytes_out", len)))

    # serve.admission
    def admitted(tracer_, _token, _args, decision):
        tracer_.count("serve.admission.decisions")
        if decision.queued:
            tracer_.count("serve.admission.queued")
        if not decision.admitted:
            tracer_.count("serve.admission.rejected")

    tracer.patch_method(AdmissionController, "acquire", timed(
        "serve.admission.acquire", after=admitted))

    # serve.snapshots
    tracer.patch_method(SnapshotStore, "build", timed(
        "serve.snapshots.build", after=counted("serve.snapshots.updates")))

    def before_pickle(args):
        executor, snapshot = args[0], args[1]
        return snapshot.generation in executor._blobs, time.perf_counter()

    def after_pickle(tracer_, token, _args, blob):
        cached, started = token
        if not cached:
            tracer_.count("serve.snapshots.pickles")
            tracer_.count("serve.snapshots.pickle_bytes_total", len(blob))
            tracer_.count("serve.snapshots.pickle_s_total", time.perf_counter() - started)

    # The pickling step has no public entry point: wrap the private one.
    tracer.patch_method(ProcessExecutor, "_blob_for", timed(
        "serve.snapshots.pickle", before=before_pickle, after=after_pickle))

    # serve.executor
    tracer.patch_method(ThreadedExecutor, "run_query", timed("serve.executor.run_query"))
    tracer.patch_method(ProcessExecutor, "run_query", timed("serve.executor.run_query"))
    tracer.patch_function("repro.serve.executor", "execute_query",
                          timed("serve.executor.execute_query"))


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (0.0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(round(fraction * len(ordered) + 0.5)) - 1))
    return ordered[index]


def layer_metrics(tracer: Tracer, extra: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric from one traced run (0 where unused)."""
    aggregates = tracer.aggregates()
    counts = tracer.counters()
    values: Dict[str, float] = {name: 0.0 for name, _unit in PER_LAYER}

    for metric, prefixes in _SELF_TIME.items():
        values[metric] = sum(
            record[2]
            for name, record in aggregates.items()
            if any(name.startswith(prefix) for prefix in prefixes)
        )

    def calls(name):
        return aggregates.get(name, [0, 0.0, 0.0])[0]

    values["prolog.reader.terms"] = counts.get("prolog.reader.terms", 0)
    probes = counts.get("prolog.database.index_probes", 0)
    values["prolog.database.index_probes"] = probes
    values["prolog.database.candidates_per_probe"] = (
        counts.get("prolog.database.candidates", 0) / probes if probes else 0.0
    )
    values["prolog.compile.clauses"] = calls("prolog.compile.compile_clause")

    engine = {"calls": 0, "unifications": 0, "clause_entries": 0,
              "backtracks": 0, "head_fast_rejects": 0, "builtin": 0}
    for metrics, database in tracer.seen.values():
        engine["calls"] += metrics.calls
        engine["unifications"] += metrics.unifications
        engine["clause_entries"] += metrics.clause_entries
        engine["backtracks"] += metrics.backtracks
        engine["head_fast_rejects"] += metrics.head_fast_rejects
        engine["builtin"] += sum(
            count
            for indicator, count in metrics.calls_by_predicate.items()
            if not database.defines(indicator)
        )
    values["prolog.engine.calls"] = engine["calls"]
    values["prolog.engine.unifications"] = engine["unifications"]
    values["prolog.engine.backtracks"] = engine["backtracks"]
    if engine["unifications"]:
        values["prolog.engine.unify_hit_ratio"] = (
            engine["clause_entries"] / engine["unifications"])
        values["prolog.engine.fast_reject_share"] = (
            engine["head_fast_rejects"] / engine["unifications"])
    if engine["calls"]:
        values["prolog.engine.builtin_call_share"] = engine["builtin"] / engine["calls"]

    values["markov.evaluations"] = counts.get("markov.evaluations", 0)
    for key in ("blocks", "exhaustive_permutations", "astar_expanded",
                "astar_pruned", "versions"):
        values[f"reorder.{key}"] = counts.get(f"reorder.{key}", 0)
    values["reorder.astar_heap_peak"] = tracer.peaks().get("reorder.astar_heap_peak", 0)
    tried = (counts.get("reorder.exhaustive_permutations", 0)
             + counts.get("reorder.astar_expanded", 0)
             + counts.get("reorder.astar_pruned", 0))
    if tried:
        illegal = (counts.get("reorder.exhaustive_illegal", 0)
                   + counts.get("reorder.astar_pruned", 0))
        values["reorder.legal_share"] = (tried - illegal) / tried
    builds = counts.get("reorder.build_hits", 0) + counts.get("reorder.build_misses", 0)
    if builds:
        values["reorder.build_hit_ratio"] = counts.get("reorder.build_hits", 0) / builds
    values["prolog.writer.clauses"] = counts.get("prolog.writer.clauses", 0)

    values["serve.protocol.bytes_out"] = counts.get("serve.protocol.bytes_out", 0)
    waits = [seconds * 1e3 for _s, seconds, _r in
             tracer.async_spans.get("serve.admission.acquire", [])]
    values["serve.admission.wait_p50_ms"] = percentile(waits, 0.50)
    values["serve.admission.wait_p99_ms"] = percentile(waits, 0.99)
    decisions = counts.get("serve.admission.decisions", 0)
    if decisions:
        values["serve.admission.queued_share"] = (
            counts.get("serve.admission.queued", 0) / decisions)
    values["serve.admission.rejected"] = counts.get("serve.admission.rejected", 0)
    builds = aggregates.get("serve.snapshots.build")
    if builds:
        values["serve.snapshots.build_ms"] = builds[1] / builds[0] * 1e3
    values["serve.snapshots.updates"] = counts.get("serve.snapshots.updates", 0)
    pickles = counts.get("serve.snapshots.pickles", 0)
    if pickles:
        values["serve.snapshots.pickle_bytes"] = (
            counts.get("serve.snapshots.pickle_bytes_total", 0) / pickles)
        values["serve.snapshots.pickle_ms"] = (
            counts.get("serve.snapshots.pickle_s_total", 0) / pickles * 1e3)
    runs = [seconds * 1e3 for _s, seconds, _r in
            tracer.async_spans.get("serve.executor.run_query", [])]
    values["serve.executor.run_p50_ms"] = percentile(runs, 0.50)
    values["serve.executor.run_p99_ms"] = percentile(runs, 0.99)
    values.update(extra)
    return values


def attributed_serve_seconds(tracer: Tracer) -> float:
    """Server-side time the wrappers claimed, summed over requests."""
    aggregates = tracer.aggregates()
    total = sum(
        record[2]
        for name, record in aggregates.items()
        if name.startswith("serve.protocol.")
    )
    total += aggregates.get("serve.snapshots.build", [0, 0.0, 0.0])[1]
    for name in ("serve.admission.acquire", "serve.executor.run_query"):
        total += sum(seconds for _s, seconds, _r in tracer.async_spans.get(name, []))
    return total


def root_shares(tracer: Tracer) -> Dict[str, float]:
    """Self-time share of every layer within the batch root span."""
    aggregates = tracer.aggregates()
    root = aggregates.get(ROOT)
    if not root or root[1] <= 0:
        return {}
    shares: Dict[str, float] = {}
    for name, record in aggregates.items():
        layer = name.rsplit(".", 1)[0]
        shares[layer] = shares.get(layer, 0.0) + record[2] / root[1]
    return shares
