"""Self-tests of the benchmark's own checks.

Run from the repository root::

    python3 perfbench/selftest.py

1. The oracle catches a broken program: the reordered corporate program
   with one clause dropped must fail some of its Table III queries.
2. The open-loop generator charges a stall to the requests queued
   behind it: a stub server that blocks once for ``STALL`` seconds must
   show latencies, measured from each request's scheduled send time,
   that cover the rest of the stall for every request due during it.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import batch  # noqa: E402
import generators  # noqa: E402
import serving  # noqa: E402

STALL = 0.3
STALL_AT = 40


def corrupted_program_fails() -> None:
    """Drop one clause from the reordered program; the check must fail."""
    from repro.prolog.database import Database
    from repro.prolog.writer import program_to_string
    from repro.reorder import Reorderer

    case = next(c for c in batch.paper_cases(random.Random(0)) if c.name == "corporate")
    case.reference = batch.oracle.reference_digests(case.source, case.queries())
    program = Reorderer(Database.from_source(case.source)).reorder()
    emitted = Database.from_source(program.source())
    # The version answering Table III's benefits(-,-) row.
    group = case.groups[0]
    victim = (program.version_name(group.indicator, group.mode), 2)
    emitted.replace_predicate(victim, emitted.clauses(victim)[1:])
    corrupted = program_to_string(emitted.to_terms(), emitted.operators)

    queries = batch._reordered_queries(case, program)
    _consult_s, _query_s, _calls, outcomes, database = batch.sweep(corrupted, queries)
    failed = sum(
        1 for query, outcome in zip(case.queries(), outcomes)
        if batch.oracle.digest(batch.oracle.answer_multiset(outcome, database.operators))
        != case.reference[query]
    )
    fail_frac = failed / len(queries)
    print(f"corrupted program ({victim[0]}/{victim[1]} lost a clause): "
          f"fail_frac = {fail_frac:.3f} ({failed} of {len(queries)})")
    assert fail_frac > 0, "the oracle missed a dropped clause"


class StubServer:
    """Answers every request at once, except that it blocks its event
    loop for ``STALL`` seconds on the ``STALL_AT``-th request."""

    def __init__(self):
        self.seen = 0
        self.stalled_at = None
        self.address = None
        self._ready = threading.Event()
        self._stop = None
        self._thread = threading.Thread(target=lambda: asyncio.run(self._main()))

    async def _main(self):
        self._stop = asyncio.Event()
        server = await asyncio.start_server(self._handle, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        self.address = f"{host}:{port}"
        self._ready.set()
        async with server:
            await self._stop.wait()

    async def _handle(self, reader, writer):
        while True:
            line = await reader.readline()
            if not line:
                break
            message = json.loads(line)
            self.seen += 1
            if self.seen == STALL_AT:
                self.stalled_at = time.monotonic()
                time.sleep(STALL)  # a blocking pause, like a long GC
            writer.write((json.dumps({
                "id": message["id"], "status": "ok", "generation": 0,
                "solutions": [], "count": 0,
            }) + "\n").encode("utf-8"))
        writer.close()

    def __enter__(self):
        self._thread.start()
        self._ready.wait(10)
        return self

    def __exit__(self, *_exc):
        self._stop._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(10)


def stall_is_charged_to_queued_requests() -> None:
    rate, seconds = 100.0, 1.5
    requests = generators.serve_schedule(
        random.Random(0), rate, seconds, ["jane"], "t", [False] * generators.TEMP_POOL)
    with StubServer() as stub:
        step = serving.drive(stub.address, requests, rate, 1)
    assert stub.stalled_at is not None, "the stub never stalled"
    stall_end = stub.stalled_at + STALL
    behind = [o for o in step.outcomes if stub.stalled_at <= o.due < stall_end - 0.01]
    assert behind, "no request was due during the stall"
    for outcome in behind:
        # Answered no earlier than the stall's end, and timed from when
        # it was due, so its latency covers the rest of the stall.
        assert outcome.latency >= stall_end - outcome.due - 0.002, outcome.latency
    worst = max(o.latency for o in step.outcomes)
    print(f"stub stall of {STALL * 1e3:.0f} ms: {len(behind)} requests due during it, "
          f"worst latency {worst * 1e3:.0f} ms, generator lag p99 "
          f"{step.lag_p99_ms():.1f} ms, step meets the "
          f"{serving.P99_LIMIT_MS:g} ms limit: {step.meets_limit()}")
    assert worst >= STALL * 0.9
    assert not step.meets_limit()


def main() -> int:
    corrupted_program_fails()
    stall_is_charged_to_queued_requests()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
