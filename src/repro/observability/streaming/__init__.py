"""The per-call telemetry channel: bounded, mergeable, safe to leave on.

The engine's one per-call instrumentation slot (``engine.recorder``)
holds a recorder from this package — sampled for continuous use, or
``sample_every=1`` for exhaustive profiling — and everything built on
Byrd boxes reads from it:

* :mod:`.ring`      — bounded retention (ring buffer, reservoir sampler);
* :mod:`.aggregate` — mergeable per-(predicate, mode) online counters
  and log-bucketed histograms with p50/p95/p99;
* :mod:`.recorder`  — the engine hook (``engine.recorder``): 1-in-N
  plus rare-predicate sampling (or every box), exact call counts, no
  event objects on the hot path;
* :mod:`.perfetto`  — Chrome/Perfetto trace-event export.

Note: :mod:`.perfetto` is intentionally not imported here; import it
as ``from repro.observability.streaming.perfetto import write_trace``.
"""

from .aggregate import LogHistogram, ModeAggregate, StreamAggregates
from .recorder import (
    BoxSample,
    StreamingRecorder,
    attach_recorder,
    detach_recorder,
)
from .ring import ReservoirSampler, RingBuffer

__all__ = [
    "RingBuffer",
    "ReservoirSampler",
    "LogHistogram",
    "ModeAggregate",
    "StreamAggregates",
    "BoxSample",
    "StreamingRecorder",
    "attach_recorder",
    "detach_recorder",
]
