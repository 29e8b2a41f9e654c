"""The machine's current speed, from a fixed pure-Python reference loop.

The benchmark shares its machine with other tenants whose load comes
and goes over minutes, and a loaded machine runs all interpreter-bound
work slower by about the same factor; the fastest repetition of a unit
cannot undo a slow phase that lasts the whole run. So each run also
times :func:`reference_loop` between its units, and every time metric
is reported as *measured x REFERENCE_S / fastest loop time of the run*:
seconds on a machine that runs the loop in ``REFERENCE_S``. The loop
uses nothing of the repository, so no change there can move it.
"""

from __future__ import annotations

import random
import time
from typing import List

#: The loop's fastest time on a quiet 2-vCPU x86-64 VM with CPython 3.11.
REFERENCE_S = 0.037

_RNG = random.Random(7)
_KEYS = [_RNG.random() for _ in range(20_000)]


class _Node:
    __slots__ = ("key", "left", "right")

    def __init__(self, key):
        self.key = key
        self.left = None
        self.right = None


def _walk(node, out) -> None:
    if node is not None:
        _walk(node.left, out)
        out.append((node.key, str(node.key)))
        _walk(node.right, out)


def reference_loop() -> int:
    """Interpreter-bound work like the engine's: object allocation,
    attribute access, comparisons, recursion, strings and a dict."""
    root = _Node(0.5)
    for key in _KEYS:
        node = root
        while True:
            if key < node.key:
                if node.left is None:
                    node.left = _Node(key)
                    break
                node = node.left
            else:
                if node.right is None:
                    node.right = _Node(key)
                    break
                node = node.right
    out: List[tuple] = []
    _walk(root, out)
    prefixes = {}
    for _key, text in out:
        prefixes[text[:5]] = prefixes.get(text[:5], 0) + 1
    return len(prefixes)


class Speed:
    """Reference-loop times taken through one run."""

    def __init__(self):
        self.samples: List[float] = []

    def sample(self) -> None:
        started = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - started)

    def factor(self) -> float:
        """Multiply a measured time by this to get reference seconds."""
        return REFERENCE_S / min(self.samples)
