"""The serving backends: where admitted engine work actually runs.

The event loop must never run a query itself — engine execution is
arbitrarily long, and one slow request would freeze every connection.
Admitted work therefore goes through an :class:`Executor`, a minimal
awaitable-submission interface with exactly the surface the server
needs. Two backends implement it:

* :class:`ThreadedExecutor` (the default) — a thread pool in the
  server process. Engine state is fully per-request (a fresh
  :class:`~repro.prolog.engine.Engine` over a pinned snapshot, its own
  trail/metrics/tables), so threads need no locking, and cooperative
  :class:`~repro.robustness.Budget` checks keep well-behaved queries
  cancellable. Its weakness is the wedged request: code that never
  reaches a budget check (a blocking C call, a pathological builtin
  loop) is *answered* at its deadline but its thread is merely
  abandoned — enough of them and the pool starves.
* :class:`ProcessExecutor` — a supervised worker-process pool
  (:class:`~repro.robustness.watchdog.WorkerPool`). Each query runs in
  a subprocess against a **pickled copy** of its pinned snapshot's
  database (warm workers cache the program per generation, so only the
  first query after an ``update`` re-ships it); a request that blows
  its deadline gets its worker **killed with SIGKILL** and respawned,
  so a wedged query costs one process restart instead of a leaked
  thread. A worker that crashes mid-query (segfault, OOM kill,
  injected ``os._exit``) is retried once on a fresh worker; if that
  also fails the request **degrades** to an embedded
  :class:`ThreadedExecutor` (the response carries a ``degraded``
  marker), and repeated crashes quarantine the process backend
  entirely — the server keeps serving, threaded, with a warning in
  ``stats``. See docs/SERVING.md for the trade-offs.

Both backends speak :class:`QueryJob` — everything one admitted query
needs — through :meth:`Executor.run_query`; the generic
:meth:`Executor.run` stays for work that must run in the server
process (snapshot builds for ``update``).
"""

from __future__ import annotations

import asyncio
import pickle
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import Any, Callable, Dict, Optional, TYPE_CHECKING

from ..errors import (
    BudgetExceededError,
    DeadlineExceeded,
    ReproError,
)
from ..observability.streaming.recorder import (
    StreamingRecorder,
    attach_recorder,
    detach_recorder,
)
from ..prolog.engine import Engine
from ..prolog.writer import term_to_string
from ..robustness import faults
from ..robustness.budget import Budget
from ..robustness.watchdog import (
    WatchdogOptions,
    WatchdogUnavailable,
    WorkerCrashed,
    WorkerPool,
    WorkerTaskError,
    WorkerTimeout,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .snapshots import Snapshot

__all__ = [
    "Executor",
    "ThreadedExecutor",
    "ProcessExecutor",
    "QueryJob",
    "execute_query",
]

#: Serializes StreamingRecorder attach/detach across request threads
#: (the recorder's binding list is rebuilt on unbind; two concurrent
#: detaches must not resurrect each other's removed binding).
_RECORDER_LOCK = threading.Lock()


@dataclass
class QueryJob:
    """Everything one admitted query carries to its backend."""

    snapshot: "Snapshot"
    query: str
    table_all: bool
    max_depth: int
    eval_strategy: str
    #: The server-built bounds: deadline, call cap, solution cap and
    #: the server-held cancel token. The thread backend runs under it;
    #: the process backend ships its deadline and caps to the worker,
    #: which rebuilds an equivalent budget, since a token cannot cross
    #: the pipe.
    budget: Budget
    recorder: Optional[StreamingRecorder] = None


def execute_query(job: QueryJob) -> Dict[str, object]:
    """Run one admitted query in-process; returns the response payload.

    Everything mutable is request-private (fresh engine, trail,
    metrics, tables) except the pinned snapshot's database, which is
    read-only after publication, and the shared recorder, whose
    attach/detach is serialized and detached in a ``finally`` so a
    faulted or cancelled request never leaves a stale binding.
    """
    if faults.ACTIVE is not None:
        faults.ACTIVE.hit("serve.request")
    return _answer(
        job.snapshot.database, job.query, job.budget, job.table_all,
        job.max_depth, job.eval_strategy, job.recorder,
    )


def _answer(
    database, query, budget, table_all, max_depth, eval_strategy,
    recorder=None,
) -> Dict[str, object]:
    """The response payload of ``query`` on a fresh engine over
    ``database``: both backends answer through this function."""
    engine = Engine(
        database,
        max_depth=max_depth,
        table_all=table_all,
        budget=budget,
        adjust_recursion_limit=False,
        eval_strategy=eval_strategy,
    )
    if recorder is not None:
        with _RECORDER_LOCK:
            attach_recorder(engine, recorder)
    try:
        started = perf_counter()
        solutions = engine.ask(query)
        return {
            "solutions": [
                {
                    name: term_to_string(term, database.operators)
                    for name, term in solution.bindings.items()
                }
                for solution in solutions
            ],
            "count": len(solutions),
            "calls": engine.metrics.calls,
            "elapsed_ms": round((perf_counter() - started) * 1e3, 3),
        }
    finally:
        if recorder is not None:
            with _RECORDER_LOCK:
                detach_recorder(engine)


class Executor:
    """Abstract backend: run admitted work off the event loop."""

    async def run(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Execute ``fn(*args)`` off-loop **in the server process**;
        return (or raise) its result. Used for snapshot builds and
        other work that must see server-side state."""
        raise NotImplementedError

    async def run_query(self, job: QueryJob) -> Dict[str, object]:
        """Execute one admitted query; returns the response payload or
        raises the same error family :func:`execute_query` does."""
        raise NotImplementedError

    def stats(self) -> Dict[str, object]:
        """Backend counters for the server's ``stats`` payload."""
        return {}

    def capacity_warning(self, max_inflight: int) -> Optional[str]:
        """A warning string when this backend cannot actually run
        ``max_inflight`` requests concurrently (None = fine)."""
        return None

    def shutdown(self) -> None:
        """Release backend resources; no new calls after."""


class ThreadedExecutor(Executor):
    """Thread-pool backend (the default, single-process).

    ``max_workers`` should be at least the server's ``max_inflight`` —
    a smaller pool would silently re-queue admitted requests behind the
    admission controller's back and distort its latency accounting.
    The server checks exactly that through :meth:`capacity_warning`
    and surfaces the mismatch in ``stats`` instead of hiding it.
    """

    def __init__(self, max_workers: int = 8):
        self.max_workers = max_workers
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve"
        )

    async def run(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn(*args)`` on the pool without blocking the loop."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._pool, partial(fn, *args))

    async def run_query(self, job: QueryJob) -> Dict[str, object]:
        """Run the query as :func:`execute_query` on a pool thread."""
        return await self.run(execute_query, job)

    def stats(self) -> Dict[str, object]:
        """Thread-backend block for the server's ``stats`` payload."""
        return {"kind": "thread", "max_workers": self.max_workers}

    def capacity_warning(self, max_inflight: int) -> Optional[str]:
        """Warn when the pool is smaller than the admission window."""
        if self.max_workers < max_inflight:
            return (
                f"thread backend has {self.max_workers} workers for "
                f"{max_inflight} admission slots: admitted requests will "
                f"re-queue inside the thread pool, distorting admission "
                f"latency accounting (raise max_workers or lower "
                f"max_inflight)"
            )
        return None

    def shutdown(self) -> None:
        """Release the pool without waiting for abandoned threads.

        A request answered at its deadline may leave a thread still
        unwinding cooperatively; it must not block process exit.
        """
        self._pool.shutdown(wait=False)


# -- the process backend ---------------------------------------------------

#: Worker-side program cache: the last (generation, database) this
#: worker unpickled. One entry is enough — the parent tracks what each
#: worker holds and re-ships whenever the pinned generation differs, so
#: a warm worker can never answer generation G with an older program.
_WORKER_PROGRAM: Dict[str, Any] = {"generation": None, "database": None}


def _process_worker_init(max_depth: int) -> None:
    """Per-worker initialization (runs once, in the worker process)."""
    Engine.ensure_recursion_capacity(max_depth)


def _process_worker_task(index: int, payload: tuple) -> tuple:
    """Run one query inside a worker process.

    Returns a plain tuple so every outcome crosses the pipe:
    ``(kind, data, cached_generation)`` where ``kind`` is ``"ok"``
    (``data`` is the response payload), ``"budget"`` (``data`` is
    ``(type_name, message)`` — the parent re-raises the matching
    cooperative-budget class), or ``"error"`` (``data`` is the message
    of an engine/program error or an injected ``raise``/``exhaust``
    fault). ``cached_generation`` is what :data:`_WORKER_PROGRAM`
    actually holds afterwards — the parent trusts *that*, not its own
    bookkeeping, so a fault firing before the program loads cannot
    mark the worker warm. An injected ``crash`` is ``os._exit`` — the
    parent sees the pipe die, exactly like a segfault.
    """
    (
        generation,
        blob,
        query,
        deadline,
        max_solutions,
        max_calls,
        table_all,
        max_depth,
        eval_strategy,
    ) = payload
    try:
        if faults.ACTIVE is not None:
            faults.ACTIVE.hit("serve.worker")
        if generation == _WORKER_PROGRAM["generation"] and (
            _WORKER_PROGRAM["database"] is not None
        ):
            database = _WORKER_PROGRAM["database"]
        elif blob is None:
            raise ReproError(
                f"worker holds generation {_WORKER_PROGRAM['generation']} "
                f"but generation {generation} was not shipped"
            )
        else:
            database = pickle.loads(blob)
            _WORKER_PROGRAM["generation"] = generation
            _WORKER_PROGRAM["database"] = database
        budget = Budget(
            deadline=deadline, calls=max_calls, solutions=max_solutions
        )
        outcome = ("ok", _answer(
            database, query, budget, table_all, max_depth, eval_strategy
        ))
    except BudgetExceededError as exc:
        outcome = ("budget", (type(exc).__name__, str(exc)))
    except ReproError as exc:
        outcome = ("error", str(exc))
    return outcome + (_WORKER_PROGRAM["generation"],)


class ProcessExecutor(Executor):
    """Supervised worker-process backend: true kill-on-deadline.

    Queries run in subprocesses from a
    :class:`~repro.robustness.watchdog.WorkerPool`; the degradation
    ladder on failure is **kill → retry → threaded fallback →
    quarantine** (docs/ROBUSTNESS.md):

    1. a request that passes ``deadline + grace`` without answering
       gets its worker SIGKILLed and respawned; the client receives
       the ordinary ``timeout`` status and the admission slot frees
       immediately — nothing is leaked;
    2. a worker that *crashes* mid-query is retried once on a fresh
       worker;
    3. if the retry also crashes, the request runs to completion on
       the embedded :class:`ThreadedExecutor` (``workers + 4`` threads)
       and its response carries ``degraded: "thread"``;
    4. ``quarantine_after`` consecutive crashes take the process pool
       out of rotation entirely — every later request goes straight to
       the threaded fallback and ``stats()`` carries the warning.

    Snapshot shipping is generation-cached per worker: the pickled
    database travels only when the worker's cached generation differs
    from the request's pinned one, so warm workers pay one pipe write
    per query, not one program per query.
    """

    def __init__(
        self,
        workers: int = 8,
        grace: float = 0.5,
        max_depth: int = 1_000,
        quarantine_after: int = 3,
    ):
        self.workers = max(1, workers)
        self.grace = grace
        self.quarantine_after = max(1, quarantine_after)
        self.fallback = ThreadedExecutor(max_workers=self.workers + 4)
        self.quarantined = False
        self.quarantine_reason: Optional[str] = None
        self.degraded_requests = 0
        self._consecutive_crashes = 0
        self._lock = threading.Lock()
        #: Pickled databases keyed by generation (bounded; updates are
        #: rare compared to queries, so this is almost always one hot
        #: entry plus the stragglers pinned mid-update).
        self._blobs: Dict[int, bytes] = {}
        #: Dispatch threads: each blocks on one worker's pipe while its
        #: query runs (cheap — they hold no GIL while polling).
        self._dispatch = ThreadPoolExecutor(
            max_workers=self.workers + 2,
            thread_name_prefix="repro-serve-dispatch",
        )
        self._pool = WorkerPool(
            _process_worker_task,
            size=self.workers,
            initializer=_process_worker_init,
            initargs=(max_depth,),
            options=WatchdogOptions(task_timeout=30.0, poll_interval=0.02),
        )
        try:
            self._pool.start()
        except WatchdogUnavailable as exc:
            # Restricted environment: keep serving, threaded, and say so.
            self._quarantine(f"worker pool failed to start: {exc}")

    # -- Executor surface -------------------------------------------------

    async def run(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Server-process work (snapshot builds) runs on the fallback
        thread pool — it must see the server's own state."""
        return await self.fallback.run(fn, *args)

    async def run_query(self, job: QueryJob) -> Dict[str, object]:
        """Run the query on a worker subprocess, degrading on failure.

        The full ladder: a crashed worker already got one retry inside
        :meth:`_run_query_sync`; if that failed too the query re-runs
        on the threaded fallback (``degraded`` marker in the payload),
        and once quarantined every request goes straight to threads.
        """
        if self.quarantined:
            return await self._run_degraded(job)
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(
                self._dispatch, self._run_query_sync, job
            )
        except _ProcessBackendFailed as exc:
            with self._lock:
                self.degraded_requests += 1
            if self.quarantined:
                # This request's crashes crossed the threshold.
                pass
            return await self._run_degraded(job, marker=str(exc))

    def stats(self) -> Dict[str, object]:
        """Process-backend block: pool counters + degradation state."""
        pool_stats = self._pool.stats()
        with self._lock:
            payload: Dict[str, object] = {
                "kind": "process",
                "degraded_requests": self.degraded_requests,
                "quarantined": self.quarantined,
            }
            if self.quarantine_reason is not None:
                payload["quarantine_reason"] = self.quarantine_reason
        payload.update(pool_stats)
        return payload

    def capacity_warning(self, max_inflight: int) -> Optional[str]:
        """Warn when the pool is smaller than the admission window."""
        if self.workers < max_inflight:
            return (
                f"process backend has {self.workers} workers for "
                f"{max_inflight} admission slots: admitted requests will "
                f"wait for a free worker behind the admission controller's "
                f"back (raise --workers or lower --max-inflight)"
            )
        return None

    def shutdown(self) -> None:
        """Kill every worker (idle or busy) and release the fallback."""
        self._pool.shutdown()
        self._dispatch.shutdown(wait=False)
        self.fallback.shutdown()

    @property
    def worker_pids(self):
        """Live worker PIDs (tests assert a killed PID is truly gone)."""
        return self._pool.worker_pids

    # -- internals --------------------------------------------------------

    def _blob_for(self, snapshot: "Snapshot") -> bytes:
        generation = snapshot.generation
        with self._lock:
            blob = self._blobs.get(generation)
        if blob is None:
            blob = pickle.dumps(
                snapshot.database, protocol=pickle.HIGHEST_PROTOCOL
            )
            with self._lock:
                self._blobs[generation] = blob
                while len(self._blobs) > 4:
                    self._blobs.pop(min(self._blobs))
        return blob

    def _quarantine(self, reason: str) -> None:
        with self._lock:
            if not self.quarantined:
                self.quarantined = True
                self.quarantine_reason = reason
        self._pool.shutdown()

    def _note_crash(self, message: str) -> None:
        with self._lock:
            self._consecutive_crashes += 1
            crashes = self._consecutive_crashes
        if crashes >= self.quarantine_after:
            self._quarantine(
                f"{crashes} consecutive worker crashes (last: {message}); "
                f"process backend quarantined, serving threaded"
            )

    def _note_success(self) -> None:
        with self._lock:
            self._consecutive_crashes = 0

    def _run_query_sync(self, job: QueryJob) -> Dict[str, object]:
        """Dispatch one query to a worker (blocking; runs off-loop).

        Raises the same error family the threaded path does —
        :class:`DeadlineExceeded` when the worker had to be killed,
        the re-raised budget family for cooperative exhaustion inside
        the worker, :class:`ReproError` for program errors — or
        :class:`_ProcessBackendFailed` when crash retries ran out and
        the caller should degrade.
        """
        generation = job.snapshot.generation
        budget = job.budget
        # Kill at deadline + grace: the in-worker cooperative budget
        # answers well-behaved queries *at* the deadline; SIGKILL is
        # reserved for workers that sail past it non-cooperatively.
        kill_after = (
            None if budget.deadline is None else budget.deadline + self.grace
        )
        last_crash = "worker process died"
        for _attempt in range(2):  # one retry after a crash
            if self.quarantined:
                raise _ProcessBackendFailed(last_crash)
            try:
                worker = self._pool.checkout(
                    timeout=kill_after if kill_after is not None else 60.0
                )
            except WatchdogUnavailable as exc:
                raise _ProcessBackendFailed(str(exc))
            blob = (
                None
                if worker.cache_key == generation
                else self._blob_for(job.snapshot)
            )
            payload = (
                generation,
                blob,
                job.query,
                budget.deadline,
                budget.max_solutions,
                budget.max_calls,
                job.table_all,
                job.max_depth,
                job.eval_strategy,
            )
            try:
                outcome = self._pool.execute_on(worker, payload, kill_after)
            except WorkerTimeout:
                raise DeadlineExceeded(
                    f"deadline of {budget.deadline:g}s exceeded "
                    f"(worker killed and respawned)"
                )
            except WorkerCrashed as exc:
                last_crash = str(exc)
                self._note_crash(last_crash)
                continue  # one retry on a fresh worker
            except WorkerTaskError as exc:
                # task_fn raised past its own handlers: the worker is
                # healthy but its cache state is unknown — treat it as
                # cold so the next query re-ships.
                worker.cache_key = None
                self._note_success()
                raise ReproError(str(exc))
            # The worker reports what it actually holds; trust that
            # rather than assuming the task got as far as loading.
            worker.cache_key = outcome[2]
            self._note_success()
            kind = outcome[0]
            if kind == "ok":
                return outcome[1]
            if kind == "budget":
                type_name, message = outcome[1]
                raise _budget_error(type_name, message)
            raise ReproError(outcome[1])  # kind == "error"
        raise _ProcessBackendFailed(last_crash)

    async def _run_degraded(
        self, job: QueryJob, marker: Optional[str] = None
    ) -> Dict[str, object]:
        """Threaded fallback; the payload carries the degraded marker."""
        payload = await self.fallback.run_query(job)
        payload["degraded"] = "thread"
        return payload


class _ProcessBackendFailed(ReproError):
    """Internal: the process backend gave out on this request (crash
    retries exhausted or pool unavailable); degrade to threads."""


def _budget_error(type_name: str, message: str) -> BudgetExceededError:
    """Re-raise the worker's budget exhaustion as its original class."""
    from .. import errors

    exc_class = getattr(errors, type_name, BudgetExceededError)
    if not (
        isinstance(exc_class, type)
        and issubclass(exc_class, BudgetExceededError)
    ):
        exc_class = BudgetExceededError
    return exc_class(message)
