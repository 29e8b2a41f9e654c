"""Tests for the streaming telemetry layer: ring buffers, reservoir
samplers, log-bucketed histograms, mergeable aggregates and the
sampling recorder's engine integration."""

import json
import os
import subprocess
import sys

from repro.observability.streaming import (
    LogHistogram,
    ModeAggregate,
    ReservoirSampler,
    RingBuffer,
    StreamAggregates,
    StreamingRecorder,
    attach_recorder,
    detach_recorder,
)
from repro.observability.streaming.aggregate import _bucket_of
from repro.prolog import Engine, parse_term


def run_queries(engine, query, times=1):
    goal = parse_term(query)
    for _ in range(times):
        for _ in engine.solve(goal):
            pass


class TestRingBuffer:
    def test_bounded_with_drop_accounting(self):
        ring = RingBuffer(3)
        for item in range(5):
            ring.append(item)
        assert ring.to_list() == [2, 3, 4]
        assert len(ring) == 3
        assert ring.seen == 5
        assert ring.dropped == 2
        assert ring.truncated

    def test_under_capacity_drops_nothing(self):
        ring = RingBuffer(8)
        ring.append("a")
        assert ring.dropped == 0
        assert not ring.truncated

    def test_clear_resets_accounting(self):
        ring = RingBuffer(2)
        for item in range(4):
            ring.append(item)
        ring.clear()
        assert ring.to_list() == []
        assert ring.dropped == 0


class TestReservoirSampler:
    def test_bounded_and_uniformish(self):
        sampler = ReservoirSampler(10, seed=7)
        for item in range(1000):
            sampler.offer(item)
        assert len(sampler) == 10
        assert sampler.seen == 1000
        # A uniform sample of 1..1000 should not be the first ten.
        assert sorted(sampler) != list(range(10))

    def test_seeded_and_deterministic(self):
        def retained(seed):
            sampler = ReservoirSampler(5, seed=seed)
            for item in range(200):
                sampler.offer(item)
            return list(sampler)

        assert retained(3) == retained(3)

    def test_zero_capacity_retains_nothing(self):
        sampler = ReservoirSampler(0)
        assert not sampler.offer("x")
        assert len(sampler) == 0


class TestLogHistogram:
    def test_bucket_boundaries_are_powers_of_two(self):
        assert _bucket_of(0) == 0
        assert _bucket_of(0.5) == 0
        assert _bucket_of(1) == 1
        assert _bucket_of(1.9) == 1
        assert _bucket_of(2) == 2
        assert _bucket_of(3) == 2
        assert _bucket_of(4) == 3
        assert _bucket_of(2**20) == 21

    def test_mean_min_max_exact(self):
        histogram = LogHistogram()
        for value in (1, 2, 3, 10):
            histogram.add(value)
        assert histogram.count == 4
        assert histogram.mean == 4.0
        assert histogram.min == 1
        assert histogram.max == 10

    def test_percentiles_within_bucket_factor(self):
        histogram = LogHistogram()
        for value in range(1, 101):
            histogram.add(value)
        p50 = histogram.percentile(0.50)
        p99 = histogram.percentile(0.99)
        # Bucket midpoints are within sqrt(2) of the true quantile.
        assert 32 <= p50 <= 64
        assert p99 <= 100  # clamped to the observed max
        quantiles = histogram.quantiles()
        assert set(quantiles) == {"p50", "p95", "p99"}

    def test_empty_percentile_is_zero(self):
        assert LogHistogram().percentile(0.5) == 0.0
        assert LogHistogram().mean == 0.0

    def test_payload_round_trip(self):
        histogram = LogHistogram(scale=1e6)
        histogram.add(0.000_5)
        histogram.add(0.25)
        payload = json.loads(json.dumps(histogram.to_payload()))
        assert payload["buckets"] == {
            str(bucket): count for bucket, count in histogram.buckets.items()
        }
        assert payload["scale"] == 1e6
        assert payload["count"] == 2
        assert payload["max"] == 0.25


class TestModeAggregate:
    def test_records_the_model_quantities(self):
        aggregate = ModeAggregate()
        aggregate.record(cost=3, solutions=2, seconds=0.001)
        aggregate.record(cost=5, solutions=0, seconds=0.002)
        assert aggregate.boxes == 2
        assert aggregate.successes == 1
        assert aggregate.mean_cost == 4.0
        assert aggregate.mean_solutions == 1.0
        assert aggregate.success_rate == 0.5

    def test_payload_round_trip(self):
        aggregate = ModeAggregate()
        aggregate.record(1, 1, 0.001)
        aggregate.record(9, 0, 0.002)
        payload = json.loads(json.dumps(aggregate.to_payload()))
        assert payload["boxes"] == 2
        assert payload["successes"] == 1
        assert payload["cost"] == json.loads(json.dumps(aggregate.cost.to_payload()))
        assert payload["cost"]["total"] == 10


class TestStreamAggregates:
    def test_stream_records_sorted_and_typed(self):
        aggregates = StreamAggregates()
        aggregates.record_box(("z", 0), "()", 1, 1, 0.0)
        aggregates.record_box(("a", 0), "()", 1, 1, 0.0)
        records = aggregates.to_records()
        assert [record["type"] for record in records] == ["stream", "stream"]
        assert [record["predicate"] for record in records] == ["a/0", "z/0"]
        assert "cost" in records[0] and "p95" in records[0]["cost"]


class TestStreamingRecorderEngine:
    SOURCE = "q. r. p :- q, r."

    def test_rare_phase_samples_everything(self):
        engine = Engine.from_source(self.SOURCE)
        recorder = attach_recorder(engine, StreamingRecorder())
        run_queries(engine, "p")
        # 3 calls (p, q, r), all within the rare threshold.
        assert recorder.calls == 3
        assert recorder.aggregates.sampled_boxes() == 3
        assert recorder.sampled_rate() == 1.0

    def test_cost_is_exact_calls_in_box(self):
        engine = Engine.from_source(self.SOURCE)
        recorder = attach_recorder(engine, StreamingRecorder())
        run_queries(engine, "p")
        p = recorder.aggregates.get(("p", 0), "()")
        # p's box: its own call plus the q and r subgoal calls.
        assert p.mean_cost == 3.0
        assert recorder.aggregates.get(("q", 0), "()").mean_cost == 1.0

    def test_hot_predicates_follow_the_stride(self):
        engine = Engine.from_source("f(1).")
        recorder = attach_recorder(
            engine, StreamingRecorder(rare_threshold=0, sample_every=4)
        )
        run_queries(engine, "f(X)", times=20)
        assert ("f", 1) in recorder.hot
        assert recorder.calls == 20
        # Exactly the calls where the global counter hit the stride.
        assert recorder.aggregates.sampled_boxes() == 5
        assert recorder.sampled_rate() == 0.25

    def test_rare_threshold_promotes_to_hot(self):
        engine = Engine.from_source("f(1).")
        recorder = attach_recorder(
            engine, StreamingRecorder(rare_threshold=6, sample_every=1000)
        )
        run_queries(engine, "f(X)", times=10)
        # First 6 calls sampled (rare), the rest miss the long stride.
        assert recorder.aggregates.sampled_boxes() == 6
        assert ("f", 1) in recorder.hot
        assert recorder.aggregates.total_calls[("f", 1)] == 10

    def test_cost_exact_even_for_unsampled_descendants(self):
        engine = Engine.from_source(self.SOURCE)
        recorder = attach_recorder(
            engine,
            # Sample only when the counter hits a multiple of 64: with 3
            # calls per run, run 21 opens p's box at call 63... i.e. the
            # stride keeps q/r boxes unsampled while p's box still
            # charges their calls exactly.
            StreamingRecorder(rare_threshold=1, sample_every=4),
        )
        run_queries(engine, "p", times=8)
        p = recorder.aggregates.get(("p", 0), "()")
        assert p is not None
        # Every sampled p box costs exactly 3 calls, sampled or not
        # for the q/r boxes inside it.
        assert p.mean_cost == 3.0

    def test_detach_restores_fast_path_and_keeps_totals(self):
        engine = Engine.from_source("f(1).")
        recorder = attach_recorder(engine, StreamingRecorder())
        run_queries(engine, "f(X)", times=3)
        detach_recorder(engine)
        assert engine.recorder is None
        run_queries(engine, "f(X)", times=5)
        # Post-detach calls are not attributed to the recorder.
        assert recorder.calls == 3

    def test_attach_is_idempotent_per_engine(self):
        engine = Engine.from_source("f(1).")
        recorder = StreamingRecorder()
        attach_recorder(engine, recorder)
        attach_recorder(engine, recorder)
        run_queries(engine, "f(X)", times=2)
        assert recorder.calls == 2

    def test_shared_recorder_accounts_multiple_engines(self):
        recorder = StreamingRecorder()
        for _ in range(2):
            engine = Engine.from_source("f(1).")
            attach_recorder(engine, recorder)
            run_queries(engine, "f(X)", times=3)
        assert recorder.calls == 6
        assert recorder.aggregates.total_calls[("f", 1)] == 6

    def test_ring_bounds_memory(self):
        engine = Engine.from_source("f(1).")
        recorder = attach_recorder(
            engine, StreamingRecorder(capacity=4, rare_threshold=100)
        )
        run_queries(engine, "f(X)", times=10)
        assert len(recorder.ring) == 4
        assert recorder.dropped == 6
        assert recorder.truncated

    def test_samples_merge_ring_and_reservoirs_in_order(self):
        engine = Engine.from_source("f(1). g(2).")
        recorder = attach_recorder(
            engine, StreamingRecorder(capacity=3, rare_threshold=100)
        )
        run_queries(engine, "f(X)", times=4)
        run_queries(engine, "g(X)", times=4)
        samples = recorder.samples()
        # Reservoirs retain evicted f/1 samples the 3-slot ring lost.
        assert len(samples) > 3
        timestamps = [sample.ts for sample in samples]
        assert timestamps == sorted(timestamps)
        record = samples[0].to_record()
        assert record["type"] == "sample"
        assert record["predicate"] in ("f/1", "g/1")

    def test_reservoirs_do_not_depend_on_string_hashing(self):
        # Each reservoir is seeded from its predicate; string hashing is
        # salted per process, so two processes with different hash seeds
        # must still keep the same samples once the ring has evicted.
        script = (
            "import json\n"
            "from repro.observability.streaming import ("
            "StreamingRecorder, attach_recorder)\n"
            "from repro.prolog import Engine\n"
            "engine = Engine.from_source("
            "'count(0). count(N) :- N > 0, M is N - 1, count(M).')\n"
            "recorder = attach_recorder("
            "engine, StreamingRecorder(capacity=8, sample_every=1))\n"
            "engine.ask('count(200)')\n"
            "assert recorder.truncated\n"
            "print(json.dumps([[s.indicator[0], s.depth, s.cost] "
            "for s in recorder.samples()]))\n"
        )
        kept = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            output = subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True,
            ).stdout
            kept.append(json.loads(output))
        assert len(kept[0]) > 8
        assert kept[0] == kept[1]

    def test_summary_lines_report_rates(self):
        engine = Engine.from_source("f(1).")
        recorder = attach_recorder(engine, StreamingRecorder())
        run_queries(engine, "f(X)", times=2)
        lines = recorder.summary_lines()
        assert "calls=2" in lines[0]
        assert any("f/1" in line for line in lines[1:])


class TestAttachDetachLifecycle:
    """Attach/detach must be idempotent and exception-safe: the serve
    layer detaches in a ``finally`` around every request, whether the
    request completed, faulted, or was cancelled mid-query."""

    def test_detach_twice_is_a_noop(self):
        engine = Engine.from_source("f(1).")
        recorder = attach_recorder(engine, StreamingRecorder())
        run_queries(engine, "f(X)", times=2)
        assert detach_recorder(engine) is recorder
        # The second detach (e.g. an outer finally) touches nothing.
        assert detach_recorder(engine) is None
        assert recorder.calls == 2

    def test_detach_never_attached_returns_none(self):
        engine = Engine.from_source("f(1).")
        assert detach_recorder(engine) is None

    def test_detach_in_finally_after_midquery_exception(self):
        engine = Engine.from_source("f(1).\nboom(X) :- undefined_pred(X).")
        recorder = attach_recorder(engine, StreamingRecorder())
        try:
            try:
                engine.ask("f(X), boom(X)")
            finally:
                detach_recorder(engine)
        except Exception:
            pass
        # The calls charged before the blow-up were folded in, and the
        # recorder no longer tracks the dead engine's metrics.
        assert engine.recorder is None
        assert recorder.calls >= 1
        before = recorder.calls
        engine.ask("f(X)")
        assert recorder.calls == before

    def test_attaching_a_different_recorder_detaches_the_old_one(self):
        engine = Engine.from_source("f(1).")
        first = attach_recorder(engine, StreamingRecorder())
        run_queries(engine, "f(X)", times=2)
        second = attach_recorder(engine, StreamingRecorder())
        run_queries(engine, "f(X)", times=3)
        # No double instrumentation, no stale binding: each recorder
        # accounts exactly the calls made while it was attached.
        assert first.calls == 2
        assert second.calls == 3
        assert engine.recorder is second

    def test_unbind_unknown_metrics_is_a_noop(self):
        recorder = StreamingRecorder()
        engine = Engine.from_source("f(1).")
        recorder.unbind(engine.metrics)  # never bound: nothing happens
        assert recorder.calls == 0
