"""Bounded retention primitives: ring buffer and reservoir sampler.

Continuous telemetry must run for hours without growing: the PR-1
:class:`~repro.observability.events.EventBus` buffers its first
``limit`` events and then counts overflow, which makes it a one-shot
instrument — under sustained load it fills once and goes blind. The two
containers here fix retention for the always-on path:

* :class:`RingBuffer` keeps the *most recent* ``capacity`` items,
  overwriting the oldest and counting how many were evicted — the right
  policy for "what just happened" diagnostics;
* :class:`ReservoirSampler` keeps a uniform random ``k``-subset of an
  unbounded stream (Vitter's Algorithm R) under a caller-supplied seed,
  so *rare* predicates keep representation no matter how long a hot
  predicate floods the ring.

Both are engine-agnostic and import nothing from the rest of the
package, so any layer (the four-port tracer, the streaming recorder,
future subsystems) can use them without cycles.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Generic, Iterator, List, TypeVar

__all__ = ["RingBuffer", "ReservoirSampler"]

T = TypeVar("T")


class RingBuffer(Generic[T]):
    """A most-recent-``capacity`` buffer with eviction accounting.

    Appending past capacity silently evicts the oldest item but *not*
    silently overall: :attr:`seen` counts every offered item and
    :attr:`dropped` how many were evicted, so consumers (JSONL headers,
    ``format()`` footers) can always report how much history is missing.
    """

    __slots__ = ("_items", "capacity", "seen")

    def __init__(self, capacity: int = 10_000):
        self.capacity = max(0, capacity)
        self._items: deque = deque(maxlen=self.capacity)
        #: Total items ever offered (retained or evicted).
        self.seen = 0

    def append(self, item: T) -> None:
        """Retain ``item``, evicting the oldest entry past capacity."""
        self.seen += 1
        if self.capacity:
            self._items.append(item)

    @property
    def dropped(self) -> int:
        """Items evicted (or never retained, when capacity is 0)."""
        return self.seen - len(self._items)

    @property
    def truncated(self) -> bool:
        """Was any item evicted?"""
        return self.dropped > 0

    def to_list(self) -> List[T]:
        """The retained items, oldest first."""
        return list(self._items)

    def clear(self) -> None:
        """Drop all retained items and the accounting."""
        self._items.clear()
        self.seen = 0

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[T]:
        return iter(self._items)


class ReservoirSampler(Generic[T]):
    """Uniform ``k``-sample over an unbounded stream (Algorithm R).

    Every offered item has, at any point, probability ``k/seen`` of
    being retained — which is exactly the guarantee the ring buffer
    lacks: a predicate called once an hour survives here even when the
    ring has long since recycled. The RNG is seeded, so a given stream
    always retains the same sample (deterministic tests).
    """

    __slots__ = ("items", "capacity", "seen", "_random")

    def __init__(self, capacity: int = 32, seed: int = 0):
        self.capacity = max(0, capacity)
        self.items: List[T] = []
        #: Total items ever offered.
        self.seen = 0
        self._random = random.Random(seed)

    def offer(self, item: T) -> bool:
        """Offer one item; returns True when it was retained."""
        self.seen += 1
        if len(self.items) < self.capacity:
            self.items.append(item)
            return True
        if self.capacity == 0:
            return False
        # int(random() * seen) instead of randrange(): one C-level RNG
        # draw on the recorder's hot close path (the bias for stream
        # lengths below 2**53 is immaterial for sampling).
        slot = int(self._random.random() * self.seen)
        if slot < self.capacity:
            self.items[slot] = item
            return True
        return False

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[T]:
        return iter(self.items)
