"""The one call cap through ``repro serve``.

A request capped by ``max_calls`` runs under ``Budget(calls=N)``. On
the thread backend the engine raises ``CallBudgetExceeded`` in the
server process; on the process backend it raises in a worker, and the
error crosses the pipe as ``(class name, message)``. Either way the
client sees the ``exhausted`` status with the message "call budget of
N exhausted", and the process executor re-raises the original class.
"""

import asyncio

import pytest

from repro.errors import CallBudgetExceeded
from repro.robustness import Budget
from repro.serve import ProcessExecutor, QueryJob, ServeClient, SnapshotStore

#: ``anc(a, X)`` makes 15 calls on the serve test program.
CAP = 5
MESSAGE = f"call budget of {CAP} exhausted"


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_max_calls_answers_exhausted_with_the_cap_message(
    server_factory, backend
):
    thread = server_factory(
        backend=backend, workers=1, max_inflight=1, max_calls=CAP
    )
    with ServeClient(thread.server.address) as client:
        response = client.query("anc(a, X)")
        assert response["status"] == "exhausted"
        assert response["error"] == MESSAGE
        assert client.query("parent(a, X)")["status"] == "ok"


def test_process_worker_cap_keeps_its_class(database):
    executor = ProcessExecutor(workers=1)
    try:
        job = QueryJob(
            snapshot=SnapshotStore(database).current,
            query="anc(a, X)",
            table_all=False,
            max_depth=1_000,
            eval_strategy="topdown",
            budget=Budget(calls=CAP),
        )
        with pytest.raises(CallBudgetExceeded, match=f"^{MESSAGE}$"):
            asyncio.run(executor.run_query(job))
        assert not executor.quarantined  # a worker answered, not threads
    finally:
        executor.shutdown()
