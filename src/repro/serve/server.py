"""The ``repro serve`` query server: asyncio front, pooled engine back.

One long-lived process serves many concurrent queries over a shared
program. The moving parts, and where each concern lives:

* **Snapshot isolation** — every query is pinned at admission to the
  :class:`~repro.serve.snapshots.Snapshot` current at that moment;
  updates build the next generation in the background (serialized by
  one writer lock) and publish it atomically. A reader admitted before
  a swap finishes on its pinned generation — answers are never torn
  across program versions (see docs/SERVING.md).
* **Admission control** — the bounded
  :class:`~repro.serve.admission.AdmissionController` grants at most
  ``max_inflight`` execution slots with at most ``max_queue`` waiters;
  past that, requests are shed immediately with
  :data:`~repro.serve.protocol.STATUS_REJECTED` instead of queueing
  unboundedly.
* **Budgets** — each admitted query runs under its own
  :class:`~repro.robustness.Budget` (``--default-timeout``, overridable
  per request) with a :class:`~repro.robustness.CancelToken` the server
  side holds. The engine honours the deadline cooperatively; a wedged
  request (blocking sleep, injected ``serve.request`` hang) is answered
  by the event-loop watchdog at ``deadline + grace`` and its token
  cancelled, so one stuck thread never stalls its client or its slot
  beyond the allowance.
* **Off-loop execution** — engine work runs on an
  :class:`~repro.serve.executor.Executor` backend selected by
  ``--backend``: :class:`~repro.serve.executor.ThreadedExecutor` (the
  default) or the supervised
  :class:`~repro.serve.executor.ProcessExecutor`, whose watchdog
  SIGKILLs a worker that sails past its deadline, retries crashed
  queries on a fresh worker, and degrades to threads (then full
  quarantine) when workers keep dying. The event loop only parses
  lines, makes admission decisions, and writes responses.
* **Lifecycle telemetry** — every transition emits a
  :class:`~repro.observability.events.RequestEvent`
  (admitted/started/completed/rejected/cancelled, with queue depth and
  snapshot generation) on the server's event bus, optionally streamed
  to a JSONL log; a shared
  :class:`~repro.observability.streaming.StreamingRecorder` is attached
  to each request engine (and detached in a ``finally``) so live
  traffic feeds the same per-predicate aggregates the drift monitor
  consumes.
* **Graceful drain** — SIGINT/SIGTERM stop the listener, let in-flight
  requests finish for ``drain_timeout`` seconds, then cancel the
  stragglers' tokens; requests arriving mid-drain get
  :data:`~repro.serve.protocol.STATUS_UNAVAILABLE`.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import warnings as _warnings
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Optional, Set

from ..errors import (
    BudgetExceededError,
    DeadlineExceeded,
    QueryCancelled,
    ReproError,
)
from ..observability.events import EventBus, RequestEvent
from ..observability.streaming.recorder import StreamingRecorder
from ..prolog.database import Database
from ..prolog.engine import Engine
from .admission import AdmissionController
from ..robustness.budget import Budget, CancelToken
from .executor import (
    Executor,
    ProcessExecutor,
    QueryJob,
    ThreadedExecutor,
)
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    STATUS_CANCELLED,
    STATUS_ERROR,
    STATUS_EXHAUSTED,
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_TIMEOUT,
    STATUS_UNAVAILABLE,
    decode_line,
    error_response,
)
from .snapshots import SnapshotStore

__all__ = ["ServeOptions", "QueryServer", "ServerThread"]

#: Event-bus retention (lifecycle events; the JSONL log is unbounded).
BUS_LIMIT = 100_000


@dataclass
class ServeOptions:
    """Everything ``repro serve`` is configured by.

    Each field but ``max_depth`` and ``quarantine_after`` has a
    ``repro serve`` flag of the same name (``unix_path`` is ``--unix``,
    ``log_path`` ``--log``, ``eval_strategy`` ``--eval``); those two
    are set from code only.
    """

    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (tests/benchmarks).
    port: int = 7878
    #: UNIX-socket path; set to serve on it instead of TCP.
    unix_path: Optional[str] = None
    #: Concurrent executing requests (executor slots).
    max_inflight: int = 8
    #: Admitted-but-waiting requests; past this, load is shed.
    max_queue: int = 16
    #: Default per-request wall-clock deadline, seconds (None = none).
    default_timeout: Optional[float] = 30.0
    #: Default per-request solution cap (a clean stop, not an error).
    max_solutions: Optional[int] = 10_000
    #: Optional per-request call budget (None = unlimited).
    max_calls: Optional[int] = None
    #: Seconds past a request's deadline before the event-loop watchdog
    #: stops waiting for its (cooperatively cancelled) worker thread.
    grace: float = 0.5
    #: Seconds in-flight requests get to finish after drain starts.
    drain_timeout: float = 5.0
    #: JSONL file receiving one record per request lifecycle event.
    log_path: Optional[str] = None
    #: Table every user predicate in request engines.
    table_all: bool = False
    #: Engine recursion depth per request (recursion capacity is
    #: reserved once, at server start, not per request).
    max_depth: int = 1_000
    #: Evaluation strategy for request engines (``topdown`` |
    #: ``bottomup`` | ``auto``; see docs/EVALUATION.md). Bottom-up
    #: materializations are request-private and rebuilt per snapshot,
    #: so ``update`` invalidation falls out of snapshot isolation.
    eval_strategy: str = "topdown"
    #: Execution backend: ``thread`` (default — cooperative deadlines,
    #: shared process) or ``process`` (supervised worker pool with true
    #: kill-on-deadline and crash recovery; see docs/SERVING.md).
    backend: str = "thread"
    #: Backend worker count. ``None`` sizes the pool from
    #: ``max_inflight``: the process pool gets exactly ``max_inflight``
    #: workers, the thread pool ``max_inflight + 4`` (slack absorbs
    #: threads abandoned by the deadline watchdog).
    workers: Optional[int] = None
    #: Consecutive worker crashes before the process backend is
    #: quarantined (the server keeps serving on threads).
    quarantine_after: int = 3


class QueryServer:
    """One serving instance: snapshot store + admission + backend.

    Construct, ``await start()``, then ``await serve_forever()`` (or
    drive :meth:`initiate_drain` / :meth:`shutdown` yourself — the
    tests and :class:`ServerThread` do).
    """

    def __init__(
        self,
        database: Database,
        options: Optional[ServeOptions] = None,
        executor: Optional[Executor] = None,
    ):
        self.options = options or ServeOptions()
        self.store = SnapshotStore(database)
        self.admission = AdmissionController(
            self.options.max_inflight, self.options.max_queue
        )
        if executor is not None:
            self.executor = executor
        elif self.options.backend == "process":
            self.executor = ProcessExecutor(
                workers=self.options.workers or self.options.max_inflight,
                grace=self.options.grace,
                max_depth=self.options.max_depth,
                quarantine_after=self.options.quarantine_after,
            )
        elif self.options.backend == "thread":
            # Pool slack beyond max_inflight: a request abandoned by the
            # deadline watchdog frees its admission slot immediately but
            # its thread keeps a worker until the next cooperative budget
            # check — without headroom, one wedged thread would stall a
            # fresh, healthy request behind it.
            self.executor = ThreadedExecutor(
                max_workers=self.options.workers
                or self.options.max_inflight + 4
            )
        else:
            raise ValueError(
                f"unknown backend {self.options.backend!r} "
                f"(use thread|process)"
            )
        #: The backend capacity mismatch, surfaced rather than silently
        #: re-queueing admitted requests inside the backend pool.
        self.backend_warning = self.executor.capacity_warning(
            self.options.max_inflight
        )
        if self.backend_warning is not None:
            _warnings.warn(self.backend_warning, RuntimeWarning, stacklevel=2)
        self.events = EventBus(limit=BUS_LIMIT)
        self.recorder = StreamingRecorder()
        self.draining = False
        self._drain_requested = asyncio.Event()
        self._update_lock = asyncio.Lock()
        self._server: Optional[asyncio.AbstractServer] = None
        self._requests: Set[asyncio.Task] = set()
        self._connections: Set[asyncio.Task] = set()
        self._tokens: Set[CancelToken] = set()
        self._sequence = 0
        self._started_at = perf_counter()
        self._log = None
        # Reserve recursion capacity once; request engines opt out of
        # the per-construction adjustment.
        Engine.ensure_recursion_capacity(self.options.max_depth)

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener (TCP or UNIX socket) and start accepting."""
        if self.options.log_path:
            self._log = open(self.options.log_path, "a", encoding="utf-8")
        if self.options.unix_path:
            self._server = await asyncio.start_unix_server(
                self._on_connection, path=self.options.unix_path
            )
        else:
            self._server = await asyncio.start_server(
                self._on_connection, host=self.options.host,
                port=self.options.port,
            )

    @property
    def address(self) -> str:
        """The bound address (``host:port`` or the UNIX-socket path)."""
        if self.options.unix_path:
            return self.options.unix_path
        assert self._server is not None, "server not started"
        host, port = self._server.sockets[0].getsockname()[:2]
        return f"{host}:{port}"

    async def serve_forever(self) -> None:
        """Serve until a signal (or :meth:`initiate_drain`) stops us.

        SIGINT/SIGTERM handlers are installed when the platform and
        thread allow it (the CLI path); otherwise callers trigger the
        drain programmatically.
        """
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, self.initiate_drain)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread / unsupported platform
        await self._drain_requested.wait()
        await self.shutdown()

    def initiate_drain(self) -> None:
        """Begin a graceful drain (idempotent, signal-handler safe)."""
        if not self.draining:
            self.draining = True
            self._drain_requested.set()

    async def shutdown(self) -> None:
        """Drain: stop listening, let work finish, cancel stragglers."""
        self.draining = True
        self._drain_requested.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        pending = [task for task in self._requests if not task.done()]
        if pending:
            _done, late = await asyncio.wait(
                pending, timeout=self.options.drain_timeout
            )
            if late:
                for token in list(self._tokens):
                    token.cancel("server drain")
                _done, late = await asyncio.wait(
                    late, timeout=1.0 + self.options.grace
                )
                for task in late:  # truly wedged: abandon
                    task.cancel()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self.executor.shutdown()
        if self._log is not None:
            self._log.close()
            self._log = None

    # -- telemetry --------------------------------------------------------

    def _emit(
        self,
        action: str,
        request_id: str,
        op: str,
        generation: int,
        status: Optional[str] = None,
        seconds: Optional[float] = None,
    ) -> None:
        event = RequestEvent(
            action=action,
            request_id=request_id,
            op=op,
            generation=generation,
            queue_depth=self.admission.queued,
            inflight=self.admission.inflight,
            status=status,
            seconds=seconds,
        )
        self.events.emit(event)
        if self._log is not None:
            self._log.write(json.dumps(event.to_record()) + "\n")
            self._log.flush()

    def stats(self) -> Dict[str, object]:
        """The ``stats`` payload (also what the bench gate reads)."""
        backend: Dict[str, object] = dict(self.executor.stats())
        if self.backend_warning is not None:
            backend["capacity_warning"] = self.backend_warning
        payload: Dict[str, object] = {
            "generation": self.store.generation,
            "draining": self.draining,
            "uptime_s": round(perf_counter() - self._started_at, 3),
            "protocol": PROTOCOL_VERSION,
            "engine_calls": self.recorder.calls,
            "backend": backend,
        }
        payload.update(self.admission.snapshot())
        return payload

    # -- connection handling ----------------------------------------------

    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.ensure_future(self._handle_connection(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        conn_tasks: Set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, asyncio.LimitOverrunError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.create_task(
                    self._serve_line(line, writer, write_lock)
                )
                for registry in (self._requests, conn_tasks):
                    registry.add(task)
                    task.add_done_callback(registry.discard)
        finally:
            # A half-closed client (sent its requests, shut down its
            # write side) still deserves its responses: wait for this
            # connection's in-flight requests before closing.
            if conn_tasks:
                await asyncio.gather(*conn_tasks, return_exceptions=True)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        response: Dict[str, object],
    ) -> None:
        from .protocol import encode

        try:
            async with lock:
                writer.write(encode(response))
                await writer.drain()
        except (ConnectionError, OSError):
            pass  # client went away; the work is already accounted

    async def _serve_line(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        try:
            message = decode_line(line)
        except ProtocolError as exc:
            await self._send(
                writer, write_lock, error_response(None, STATUS_ERROR, str(exc))
            )
            return
        request_id = message.get("id")
        op = message["op"]
        try:
            if op == "query":
                response = await self._run_query(message)
            elif op == "update":
                response = await self._run_update(message)
            elif op == "ping":
                response = {
                    "status": STATUS_OK,
                    "generation": self.store.generation,
                    "protocol": PROTOCOL_VERSION,
                }
            else:  # stats
                response = {"status": STATUS_OK, **self.stats()}
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # a handler bug must not kill the connection
            response = error_response(
                request_id, STATUS_ERROR, f"internal error: {exc!r}"
            )
        response.setdefault("id", request_id)
        await self._send(writer, write_lock, response)

    # -- request ids / field validation -----------------------------------

    def _request_id(self, message: Dict[str, object]) -> str:
        self._sequence += 1
        client_id = message.get("id")
        return str(client_id) if client_id is not None else f"#{self._sequence}"

    @staticmethod
    def _number_field(
        message: Dict[str, object], name: str, default: Optional[float]
    ) -> Optional[float]:
        """A positive-number field; present-but-null disables the bound."""
        if name not in message:
            return default
        raw = message[name]
        if raw is None:
            return None
        if isinstance(raw, bool) or not isinstance(raw, (int, float)) or raw <= 0:
            raise ProtocolError(f"{name} must be a positive number or null")
        return float(raw)

    # -- query path -------------------------------------------------------

    async def _run_query(self, message: Dict[str, object]) -> Dict[str, object]:
        request_id = self._request_id(message)
        client_id = message.get("id")
        query = message.get("query")
        if not isinstance(query, str) or not query.strip():
            return error_response(
                client_id, STATUS_ERROR, "query must be a non-empty string"
            )
        try:
            timeout = self._number_field(
                message, "timeout", self.options.default_timeout
            )
            limit_raw = self._number_field(
                message, "limit", self.options.max_solutions
            )
        except ProtocolError as exc:
            return error_response(client_id, STATUS_ERROR, str(exc))
        limit = None if limit_raw is None else int(limit_raw)
        if self.draining:
            self._emit("rejected", request_id, "query",
                       self.store.generation, status=STATUS_UNAVAILABLE)
            return error_response(
                client_id, STATUS_UNAVAILABLE, "server is draining",
                generation=self.store.generation,
            )
        arrived = perf_counter()
        decision = await self.admission.acquire()
        if not decision.admitted:
            self._emit("rejected", request_id, "query",
                       self.store.generation, status=STATUS_REJECTED)
            return error_response(
                client_id, STATUS_REJECTED,
                f"saturated: {self.admission.max_inflight} in flight, "
                f"{decision.queue_depth} queued (shed rather than queue "
                f"unboundedly)",
                generation=self.store.generation,
            )
        # Pin the program version at admission: everything this request
        # sees comes from this snapshot, regardless of later updates.
        snapshot = self.store.current
        self._emit("admitted", request_id, "query", snapshot.generation)
        token = CancelToken()
        budget = Budget(
            deadline=timeout,
            calls=self.options.max_calls,
            solutions=limit,
            token=token,
        )
        self._tokens.add(token)
        cancelled = False
        try:
            self._emit("started", request_id, "query", snapshot.generation)
            job = QueryJob(
                snapshot=snapshot,
                query=query,
                table_all=self.options.table_all,
                max_depth=self.options.max_depth,
                eval_strategy=self.options.eval_strategy,
                budget=budget,
                recorder=self.recorder,
            )
            work = asyncio.ensure_future(self.executor.run_query(job))
            try:
                if timeout is None:
                    payload = await work
                else:
                    # The engine honours the deadline cooperatively; the
                    # watchdog only fires for wedged threads (blocking
                    # sleeps, injected hangs) and answers the client at
                    # deadline + grace while cancelling the token. The
                    # process backend kills its own worker at the same
                    # point and raises DeadlineExceeded before this
                    # backstop — the extra slack keeps the two watchdogs
                    # from racing each other.
                    backstop = timeout + self.options.grace
                    if isinstance(self.executor, ProcessExecutor):
                        backstop += self.options.grace + 5.0
                    payload = await asyncio.wait_for(
                        asyncio.shield(work), backstop
                    )
                if payload.get("degraded"):
                    self._emit(
                        "degraded", request_id, "query", snapshot.generation
                    )
                status = STATUS_OK
                response: Dict[str, object] = {
                    "id": client_id,
                    "status": STATUS_OK,
                    "generation": snapshot.generation,
                }
                response.update(payload)
            except asyncio.TimeoutError:
                token.cancel("deadline watchdog")
                work.add_done_callback(_swallow_task_error)
                cancelled = True
                status = STATUS_TIMEOUT
                response = error_response(
                    client_id, STATUS_TIMEOUT,
                    f"deadline of {timeout:g}s exceeded "
                    f"(request abandoned by watchdog)",
                    generation=snapshot.generation,
                )
            except DeadlineExceeded as exc:
                status = STATUS_TIMEOUT
                response = error_response(
                    client_id, STATUS_TIMEOUT, str(exc),
                    generation=snapshot.generation,
                )
            except QueryCancelled as exc:
                cancelled = True
                status = STATUS_CANCELLED
                response = error_response(
                    client_id, STATUS_CANCELLED, str(exc),
                    generation=snapshot.generation,
                )
            except BudgetExceededError as exc:
                status = STATUS_EXHAUSTED
                response = error_response(
                    client_id, STATUS_EXHAUSTED, str(exc),
                    generation=snapshot.generation,
                )
            except ReproError as exc:
                status = STATUS_ERROR
                response = error_response(
                    client_id, STATUS_ERROR, str(exc),
                    generation=snapshot.generation,
                )
        finally:
            self._tokens.discard(token)
            self.admission.release()
        self._emit(
            "cancelled" if cancelled else "completed",
            request_id, "query", snapshot.generation,
            status=status, seconds=perf_counter() - arrived,
        )
        return response

    # -- update path ------------------------------------------------------

    async def _run_update(self, message: Dict[str, object]) -> Dict[str, object]:
        request_id = self._request_id(message)
        client_id = message.get("id")
        asserts = message.get("assert", [])
        retracts = message.get("retract", [])
        for name, chunks in (("assert", asserts), ("retract", retracts)):
            if not isinstance(chunks, list) or not all(
                isinstance(chunk, str) for chunk in chunks
            ):
                return error_response(
                    client_id, STATUS_ERROR,
                    f"{name} must be a list of strings",
                )
        if not asserts and not retracts:
            return error_response(
                client_id, STATUS_ERROR,
                "update needs at least one assert or retract",
            )
        if self.draining:
            self._emit("rejected", request_id, "update",
                       self.store.generation, status=STATUS_UNAVAILABLE)
            return error_response(
                client_id, STATUS_UNAVAILABLE, "server is draining",
                generation=self.store.generation,
            )
        arrived = perf_counter()
        self._emit("admitted", request_id, "update", self.store.generation)
        # One writer at a time; readers are never blocked — they run on
        # their pinned snapshots while the next generation builds here.
        async with self._update_lock:
            base = self.store.current
            self._emit("started", request_id, "update", base.generation)
            try:
                result = await self.executor.run(
                    self.store.build, base, asserts, retracts
                )
            except ReproError as exc:
                self._emit("completed", request_id, "update", base.generation,
                           status=STATUS_ERROR,
                           seconds=perf_counter() - arrived)
                return error_response(
                    client_id, STATUS_ERROR, str(exc),
                    generation=base.generation,
                )
            snapshot = self.store.publish(result)
        self._emit("completed", request_id, "update", snapshot.generation,
                   status=STATUS_OK, seconds=perf_counter() - arrived)
        return {
            "id": client_id,
            "status": STATUS_OK,
            "generation": snapshot.generation,
            "asserted": result.asserted,
            "retracted": result.retracted,
        }


def _swallow_task_error(task: asyncio.Task) -> None:
    """Consume an abandoned worker's eventual exception (no loop noise)."""
    if not task.cancelled():
        task.exception()


class ServerThread:
    """Run a :class:`QueryServer` on a dedicated event-loop thread.

    The harness tests and ``benchmarks/serve_bench.py`` use — clients
    then drive the server with plain blocking sockets from the calling
    thread. ``start()`` returns the bound address; ``stop()`` drains
    and joins.
    """

    def __init__(self, database: Database, options: Optional[ServeOptions] = None):
        self.server = QueryServer(database, options)
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def start(self) -> str:
        """Start the loop thread; returns the bound address once ready."""
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="repro-serve-loop",
            daemon=True,
        )
        self._thread.start()
        self._ready.wait(timeout=10.0)
        if self._startup_error is not None:
            raise self._startup_error
        if not self._ready.is_set():
            raise RuntimeError("server failed to start within 10s")
        return self.server.address

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        try:
            await self.server.start()
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self.server.serve_forever()

    def initiate_drain(self) -> None:
        """Request a graceful drain from any thread."""
        assert self._loop is not None
        self._loop.call_soon_threadsafe(self.server.initiate_drain)

    def stop(self, join_timeout: float = 15.0) -> None:
        """Drain the server and join the loop thread (idempotent)."""
        if self._thread is None or not self._thread.is_alive():
            return
        self.initiate_drain()
        self._thread.join(timeout=join_timeout)

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()
