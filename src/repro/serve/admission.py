"""Admission control: a bounded queue that sheds load when saturated.

Unbounded queueing is the classic failure mode of a saturated server —
latency grows without bound while every client still believes its
request is "in progress". The controller here enforces two small
numbers instead:

* ``max_inflight`` — requests actually executing (each occupies one
  backend executor slot);
* ``max_queue``    — requests admitted but waiting for a slot.

A request that arrives when both are full is **rejected immediately**
(:data:`~repro.serve.protocol.STATUS_REJECTED`, CLI exit 4) — the
client learns within one round-trip that it should back off or try
another replica, and the server's memory stays bounded no matter the
offered load.

Single-threaded by construction: every method runs on the server's
event loop, so plain counters suffice — no locks. Waiters are FIFO
futures; a waiter whose task was cancelled (client disconnected while
queued) is skipped at grant time.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Deque, Dict

__all__ = ["AdmissionController", "AdmissionDecision"]


class AdmissionDecision:
    """What happened to one arrival: admitted (maybe after queueing) or
    rejected, plus the queue depth observed at arrival (telemetry)."""

    __slots__ = ("admitted", "queued", "queue_depth")

    def __init__(self, admitted: bool, queued: bool, queue_depth: int):
        self.admitted = admitted
        #: Did the request wait for a slot before being admitted?
        self.queued = queued
        #: Waiting requests at the moment of arrival (before this one).
        self.queue_depth = queue_depth


class AdmissionController:
    """Bounded in-flight + bounded queue, FIFO, with shed counters."""

    def __init__(self, max_inflight: int = 8, max_queue: int = 16):
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.inflight = 0
        #: High-water mark of concurrently executing requests.
        self.peak_inflight = 0
        #: Totals since construction (stats op / benchmark gate).
        self.admitted_total = 0
        self.rejected_total = 0
        self.completed_total = 0
        self._waiters: Deque[asyncio.Future] = deque()

    @property
    def queued(self) -> int:
        """Requests currently waiting for an execution slot."""
        return sum(1 for waiter in self._waiters if not waiter.done())

    async def acquire(self) -> AdmissionDecision:
        """Admit or reject one arrival; admitted requests may wait.

        Returns once the request either holds an execution slot or has
        been shed. An admitted caller **must** pair this with
        :meth:`release` (use ``try/finally``). Cancellation while
        queued is safe: the slot goes to the next waiter.
        """
        depth = self.queued
        if self.inflight < self.max_inflight:
            self._grant()
            return AdmissionDecision(True, False, depth)
        if depth >= self.max_queue:
            self.rejected_total += 1
            return AdmissionDecision(False, False, depth)
        waiter: asyncio.Future = asyncio.get_running_loop().create_future()
        self._waiters.append(waiter)
        try:
            await waiter
        except asyncio.CancelledError:
            # Disconnected while queued. If the grant already landed,
            # pass the slot on rather than leaking it.
            if waiter.done() and not waiter.cancelled():
                self._release_slot()
            raise
        return AdmissionDecision(True, True, depth)

    def release(self) -> None:
        """Return one execution slot; wakes the oldest live waiter."""
        self.completed_total += 1
        self._release_slot()

    # -- internals --------------------------------------------------------

    def _grant(self) -> None:
        self.inflight += 1
        self.admitted_total += 1
        if self.inflight > self.peak_inflight:
            self.peak_inflight = self.inflight

    def _release_slot(self) -> None:
        self.inflight -= 1
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                self._grant()
                waiter.set_result(None)
                return

    def snapshot(self) -> Dict[str, int]:
        """Counter snapshot for the ``stats`` op and the bench gate."""
        return {
            "inflight": self.inflight,
            "queued": self.queued,
            "peak_inflight": self.peak_inflight,
            "max_inflight": self.max_inflight,
            "max_queue": self.max_queue,
            "admitted": self.admitted_total,
            "rejected": self.rejected_total,
            "completed": self.completed_total,
        }
