"""The serve workloads: ``serve_mixed`` and ``serve_process``.

The server is ``python -m repro serve`` on the reordered corporate
program, in its own process. An asyncio open-loop generator sends a
seeded Poisson request mix over at most ``nproc`` connections; each
latency is measured from the request's *scheduled* send time, so a
stall is charged to every request queued behind it. The traced run
starts the server in-process (``ServerThread``) instead, so the layer
wrappers reach it.

Every ``ok`` response is checked against the seed interpreter on the
source program at that response's generation: the benchmark replays
the updates in the order their responses report.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.programs import corporate
from repro.prolog.database import Database
from repro.prolog.engine import Engine
from repro.reorder import Reorderer

import batch
import generators
import oracle
from layers import percentile

#: Fixed rates (req/s), the ladder, and the p99 limit of a ladder step.
LIGHT_RPS = 30.0
HEAVY_RPS = 70.0
LADDER_RPS = (50.0, 70.0, 90.0, 110.0, 130.0)
P99_LIMIT_MS = 50.0
#: Share of the run's ``--seconds`` each load phase gets; the rest
#: repeats the served program's reorder and in-process sweep.
LIGHT_SHARE, HEAVY_SHARE, LADDER_SHARE = 0.1, 0.3, 0.1
#: Seconds to wait for stragglers after the last scheduled send.
RESPONSE_TIMEOUT = 10.0

BACKENDS = {
    "serve_mixed": ["--backend", "thread"],
    "serve_process": ["--backend", "process", "--workers", "2"],
}


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# -- the open-loop generator ------------------------------------------------------


@dataclass
class Outcome:
    message: dict
    #: Scheduled send time and response arrival (loop clock, seconds).
    due: float
    lag: float
    arrived: Optional[float] = None
    response: Optional[dict] = None

    @property
    def latency(self) -> Optional[float]:
        return None if self.arrived is None else self.arrived - self.due


@dataclass
class StepResult:
    rate: float
    outcomes: List[Outcome]
    #: Requests sent but unanswered, sampled at each send.
    backlog: List[int] = field(default_factory=list)

    def ok_latencies_ms(self) -> List[float]:
        return [
            outcome.latency * 1e3
            for outcome in self.outcomes
            if outcome.response is not None and outcome.response.get("status") == "ok"
        ]

    def failures(self) -> int:
        return sum(
            1 for outcome in self.outcomes
            if outcome.response is None or outcome.response.get("status") != "ok"
        )

    def lag_p99_ms(self) -> float:
        return percentile([outcome.lag * 1e3 for outcome in self.outcomes], 0.99)

    def achieved_rps(self) -> float:
        if len(self.outcomes) < 2:
            return 0.0
        span = self.outcomes[-1].due + self.outcomes[-1].lag - self.outcomes[0].due
        return (len(self.outcomes) - 1) / span if span > 0 else 0.0

    def backlog_grows(self) -> bool:
        """Did the in-flight backlog grow over the step? Compares the
        mean backlog of its last third with that of its first third."""
        third = len(self.backlog) // 3
        if third < 3:
            return False
        first = sum(self.backlog[:third]) / third
        last = sum(self.backlog[-third:]) / third
        return last > 2 * first + 2

    def meets_limit(self) -> bool:
        """p99 within the limit, every request ok, no growing backlog (a
        failed or refused request counts as missing the limit)."""
        if self.failures() or self.backlog_grows() or not self.outcomes:
            return False
        return percentile(self.ok_latencies_ms(), 0.99) <= P99_LIMIT_MS


async def _drive(address: str, requests: Sequence[generators.Request],
                 rate: float, connections: int) -> StepResult:
    host, _, port = address.rpartition(":")
    loop = asyncio.get_running_loop()
    streams = [
        await asyncio.open_connection(host, int(port), limit=1 << 24)
        for _ in range(connections)
    ]
    pending: Dict[str, Outcome] = {}

    async def read_responses(reader):
        while True:
            line = await reader.readline()
            if not line:
                return
            arrived = loop.time()
            response = json.loads(line)
            outcome = pending.pop(response.get("id"), None)
            if outcome is not None:
                outcome.arrived = arrived
                outcome.response = response

    readers = [asyncio.ensure_future(read_responses(reader)) for reader, _ in streams]
    step = StepResult(rate, [])
    start = loop.time() + 0.02
    try:
        for index, request in enumerate(requests):
            due = start + request.offset
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            outcome = Outcome(request.message, due, loop.time() - due)
            pending[request.message["id"]] = outcome
            step.outcomes.append(outcome)
            step.backlog.append(len(pending))
            writer = streams[index % connections][1]
            writer.write((json.dumps(request.message) + "\n").encode("utf-8"))
        deadline = loop.time() + RESPONSE_TIMEOUT
        while pending and loop.time() < deadline:
            await asyncio.sleep(0.005)
    finally:
        for _reader, writer in streams:
            writer.close()
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        for _reader, writer in streams:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
    return step


def drive(address, requests, rate, connections) -> StepResult:
    """Run one open-loop step to completion (blocking)."""
    return asyncio.run(_drive(address, requests, rate, connections))


def request_once(address: str, message: dict, timeout: float = 5.0) -> dict:
    """One blocking request/response exchange (ping, stats). Plain
    sockets rather than ``repro.serve.ServeClient``, whose encoder is a
    traced entry point: the benchmark's own requests stay out of the
    ``serve.protocol`` figures."""
    import socket

    host, _, port = address.rpartition(":")
    with socket.create_connection((host, int(port)), timeout=timeout) as sock:
        sock.sendall((json.dumps(message) + "\n").encode("utf-8"))
        buffer = b""
        while not buffer.endswith(b"\n"):
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            buffer += chunk
    return json.loads(buffer)


# -- the server process ------------------------------------------------------------

_SERVING = re.compile(r"serving .* on (\S+) \(backend")


class ServerProcess:
    """``python -m repro serve`` in a child process, stopped by SIGTERM."""

    def __init__(self, root: str, program_path: str, args: List[str], log_path: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.log_path = log_path
        self._log = open(log_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", program_path,
             "--host", "127.0.0.1", "--port", "0", *args],
            stdout=subprocess.DEVNULL, stderr=self._log, env=env, cwd=root,
        )
        self.address: Optional[str] = None
        self.peak_rss_mb: Optional[float] = None

    def wait_ready(self, timeout: float = 60.0) -> str:
        """Block until the server prints its address and answers ping."""
        deadline = time.monotonic() + timeout
        while self.address is None:
            if self.process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server did not start; see {self.log_path}")
            with open(self.log_path, encoding="utf-8") as handle:
                match = _SERVING.search(handle.read())
            if match:
                self.address = match.group(1)
            else:
                time.sleep(0.005)
        while True:
            try:
                if request_once(self.address, {"op": "ping", "id": "ready"})["status"] == "ok":
                    return self.address
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.005)

    def stop(self) -> None:
        """Drain, reap, and record the server's peak resident memory."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 20.0
        while self.process.returncode is None:
            try:
                pid, status, usage = os.wait4(self.process.pid, os.WNOHANG)
            except ChildProcessError:  # already reaped by poll()
                break
            if pid:
                # ru_maxrss is in KiB on Linux.
                self.peak_rss_mb = usage.ru_maxrss / 1024.0
                self.process.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() > deadline:
                self.process.kill()
                deadline = time.monotonic() + 5.0
            time.sleep(0.01)
        self._log.close()


# -- the oracle --------------------------------------------------------------------


#: Program state between updates: (pool slot, copies of its record)
#: for every slot present, sorted.
State = Tuple[Tuple[int, int], ...]


class GenerationOracle:
    """Answers of the source program at every published generation.

    Generation ``g`` is the source program plus the first ``g`` updates
    in the order the server applied them (each update response reports
    the generation it produced). Answers come from the seed interpreter
    and are memoized per (relevant state, query).
    """

    def __init__(self, source: str):
        self.base = source
        self._answers: Dict[Tuple[State, str], List] = {}
        self._databases: Dict[State, Database] = {}

    def _database(self, state: State) -> Database:
        database = self._databases.get(state)
        if database is None:
            database = Database.from_source(self.base)
            for slot, copies in state:
                for _ in range(copies):
                    database.consult("\n".join(generators.temp_employee_facts(slot)))
            self._databases[state] = database
        return database

    def answers(self, state: State, query: str) -> List:
        # A point query names a base employee: the temporary records
        # cannot contribute to it, so it is memoized state-free.
        point = "(" in query and not query.split("(", 1)[1][:1].isupper()
        key = (() if point else state, query)
        answers = self._answers.get(key)
        if answers is None:
            database = self._database(key[0])
            try:
                solutions = Engine(database, compiled=False).ask(query)
                answers = oracle.answer_multiset(solutions, database.operators)
            except ReproError as exc:
                answers = [("error", str(exc))]
            self._answers[key] = answers
        return answers


def _apply(copies: Dict[int, int], message: dict) -> None:
    """Replay one update: a retract removes every copy of the record
    (like the server's clause-text retract), an assert adds one more —
    two updates of one slot in flight together can be applied in either
    order, so a record can be present twice."""
    for slot in range(generators.TEMP_POOL):
        facts = generators.temp_employee_facts(slot)
        if message.get("retract") == facts:
            copies.pop(slot, None)
        if message.get("assert") == facts:
            copies[slot] = copies.get(slot, 0) + 1


def check_steps(steps: List[StepResult], oracle_: GenerationOracle) -> Tuple[int, int, List[str]]:
    """(attempted, failed, first failures) over every step's requests."""
    updates: Dict[int, dict] = {}
    for step in steps:
        for outcome in step.outcomes:
            response = outcome.response
            if (outcome.message["op"] == "update" and response is not None
                    and response.get("status") == "ok"):
                updates[response["generation"]] = outcome.message
    states: Dict[int, State] = {0: ()}
    copies: Dict[int, int] = {}
    for generation in range(1, max(updates, default=0) + 1):
        if generation in updates:
            _apply(copies, updates[generation])
        states[generation] = tuple(sorted(copies.items()))
    attempted = failed = 0
    failures: List[str] = []
    for step in steps:
        for outcome in step.outcomes:
            attempted += 1
            response = outcome.response
            problem = None
            if response is None:
                problem = "no response"
            elif response.get("status") != "ok":
                problem = f"status {response.get('status')}: {response.get('error')}"
            elif outcome.message["op"] == "query":
                state = states.get(response["generation"])
                expected = oracle_.answers(state, outcome.message["query"])
                if oracle.response_multiset(response["solutions"]) != expected:
                    problem = "wrong answers"
            if problem is not None:
                failed += 1
                if len(failures) < 5:
                    failures.append(f"{outcome.message.get('query', 'update')}: {problem}")
    return attempted, failed, failures


# -- set-up and the measured phases ---------------------------------------------------


def schedules(seed: int, seconds: float):
    """The seeded request schedules of every phase (for the ladder,
    (rate, schedule) per step)."""
    rng = random.Random(seed)
    names = corporate.EMPLOYEE_NAMES
    toggles = [False] * generators.TEMP_POOL
    light = generators.serve_schedule(
        rng, LIGHT_RPS, seconds * LIGHT_SHARE, names, "l", toggles)
    heavy = generators.serve_schedule(
        rng, HEAVY_RPS, seconds * HEAVY_SHARE, names, "h", toggles)
    step_seconds = seconds * LADDER_SHARE / len(LADDER_RPS)
    ladder = [
        (rate, generators.serve_schedule(
            rng, rate, step_seconds, names, f"s{index}_", toggles))
        for index, rate in enumerate(LADDER_RPS)
    ]
    return light, heavy, ladder


def corporate_case(requests: Sequence[generators.Request]) -> batch.ProgramCase:
    """The served program as a batch case whose sweep is the distinct
    queries of ``requests``, sent to the reordered program unchanged
    (as the server answers them)."""
    queries = list(dict.fromkeys(
        r.message["query"] for r in requests if r.message["op"] == "query"))
    return batch.ProgramCase(
        "corporate", corporate.source(), ("employee", 2),
        [batch.QueryGroup(None, None, queries)])


def write_reordered(work_dir: str, tag: str) -> Tuple[str, str]:
    """Reorder the served program and write it; returns (text, path)."""
    text = Reorderer(Database.from_source(corporate.source())).reorder().source()
    path = os.path.join(work_dir, f"corporate-reordered-{tag}.pl")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return text, path

